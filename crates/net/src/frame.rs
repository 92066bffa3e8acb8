//! The wire format: length-prefixed frames carrying one protocol message.
//!
//! A frame is what one model message becomes on a real link:
//!
//! ```text
//! [len: u32 LE] [height: u32 LE] [round: u32 LE] [src: u32 LE] [seq: u32 LE] [payload...]
//! ```
//!
//! where `len` counts everything after itself (16 header bytes + payload).
//! `height` identifies the election instance a long-lived service is
//! running (`ftc-serve` re-elects at monotonically increasing heights over
//! the same substrate); single-shot runs use height 0. `round` lets
//! receivers assemble round-synchronous inboxes out of a stream that may
//! run ahead (a fast sender can enter round `r+1` while a slow receiver is
//! still collecting round `r`). `(src, seq)` gives receivers a canonical
//! inbox order — ascending `(src, seq)` — that matches the in-process
//! engine's delivery order exactly, so network runs replay simulator runs.
//! `src` is a transport-level address (like an IP address); protocols never
//! see it — the receiver maps it to a local KT0 port through its own
//! private permutation.

use std::io::{self, Read};

use ftc_sim::ids::{NodeId, Round};

/// Frame header bytes following the length prefix.
pub const HEADER_LEN: usize = 16;

/// Hard cap on one frame's declared length; anything larger is treated as
/// stream corruption rather than allocated.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Bytes a [`Payload`] holds in the frame itself.
///
/// The model is CONGEST, so every message any shipped protocol sends is
/// `O(log n)` bits: the largest [`ftc_sim::payload::Wire`] encoding in
/// `ftc-core` is `LeMsg::Propose` at 17 B (`AgreeMsg` ≤ 2 B, the chatter
/// canary's `u64` 8 B). 22 is what fits, with a length byte and the
/// variant tag, in the 24 bytes the `Vec<u8>` it replaces took — so a
/// [`Frame`] stays 40 bytes and all verified traffic travels without
/// touching the allocator.
const INLINE_CAP: usize = 22;

// A later field must not silently fatten every transmitted burst, `got`
// and `inbound` vector, nor push the shipped protocols' messages to the
// heap.
const _: () = assert!(std::mem::size_of::<Frame>() <= 40);
const _: () = assert!(INLINE_CAP >= 17);

/// A frame's payload bytes: held inline up to a fixed capacity that covers
/// every message the shipped protocols send, on the heap beyond it.
///
/// The representation is private and canonical — bytes that fit inline
/// are always inline, whichever conversion built the value — so equality,
/// `Debug` and [`Frame::encoded_len`] see only the bytes.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE_CAP] },
    Heap(Box<[u8]>),
}

impl Payload {
    /// Reads exactly `len` payload bytes from `r` straight into their
    /// final home.
    fn read_from<R: Read>(r: &mut R, len: usize) -> io::Result<Self> {
        if len <= INLINE_CAP {
            let mut bytes = [0u8; INLINE_CAP];
            r.read_exact(&mut bytes[..len])?;
            Ok(Payload(Repr::Inline {
                len: len as u8,
                bytes,
            }))
        } else {
            let mut bytes = vec![0u8; len].into_boxed_slice();
            r.read_exact(&mut bytes)?;
            Ok(Payload(Repr::Heap(bytes)))
        }
    }
}

impl Default for Payload {
    /// The empty payload.
    fn default() -> Self {
        Payload::from(&[][..])
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(bytes) => bytes,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(mut src: &[u8]) -> Self {
        let len = src.len();
        Payload::read_from(&mut src, len).expect("a slice yields its own length")
    }
}

impl From<Vec<u8>> for Payload {
    fn from(src: Vec<u8>) -> Self {
        if src.len() <= INLINE_CAP {
            Payload::from(&src[..])
        } else {
            Payload(Repr::Heap(src.into_boxed_slice()))
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One protocol message in flight on a transport link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The election instance this message belongs to (0 for single runs).
    /// Meshes are per-height, so a frame from another height on a link is
    /// a wiring bug; the tag makes that loud instead of silently wrong.
    pub height: u32,
    /// The synchronous round this message belongs to.
    pub round: Round,
    /// The sending node (transport address, invisible to protocols).
    pub src: NodeId,
    /// Position of this message within the sender's round — receivers sort
    /// by `(src, seq)` to reproduce the engine's inbox order.
    pub seq: u32,
    /// The [`ftc_sim::payload::Wire`]-encoded protocol message.
    pub payload: Payload,
}

impl Frame {
    /// Total bytes this frame occupies on the wire (prefix + header +
    /// payload) — the unit of real byte accounting.
    pub fn encoded_len(&self) -> u64 {
        (4 + HEADER_LEN + self.payload.len()) as u64
    }

    /// Serialises the frame into `buf` (appended).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let len = (HEADER_LEN + self.payload.len()) as u32;
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&self.height.to_le_bytes());
        buf.extend_from_slice(&self.round.to_le_bytes());
        buf.extend_from_slice(&self.src.0.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.payload);
    }

    /// Reads one frame from `r`.
    ///
    /// Returns `Ok(None)` on clean end-of-stream (the peer closed between
    /// frames — how a crash teardown looks from the receiving side), an
    /// error on truncation mid-frame or on a corrupt length.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
        let mut len_buf = [0u8; 4];
        // A clean EOF before any length byte is a closed link, not an error.
        match r.read(&mut len_buf) {
            Ok(0) => return Ok(None),
            Ok(k) => r.read_exact(&mut len_buf[k..])?,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                r.read_exact(&mut len_buf)?;
            }
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&len) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt frame length {len}"),
            ));
        }
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().unwrap());
        Ok(Some(Frame {
            height: word(0),
            round: word(4),
            src: NodeId(word(8)),
            seq: word(12),
            payload: Payload::read_from(r, len - HEADER_LEN)?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(height: u32, round: Round, src: u32, seq: u32, payload: &[u8]) -> Frame {
        Frame {
            height,
            round,
            src: NodeId(src),
            seq,
            payload: payload.into(),
        }
    }

    /// Payload lengths on both sides of the inline boundary.
    const BOUNDARY_LENS: [usize; 6] = [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 64 << 10];

    #[test]
    fn payload_representation_is_canonical_and_invisible() {
        for len in BOUNDARY_LENS {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            // A `Vec` with spare capacity, a slice and the wire all build
            // the same value: inline exactly when it fits.
            let mut roomy = Vec::with_capacity(len + 100);
            roomy.extend_from_slice(&bytes);
            let from_slice = frame(1, 2, 3, 4, &bytes);
            let from_vec = Frame {
                payload: roomy.into(),
                ..from_slice.clone()
            };
            let mut stream = Vec::new();
            from_slice.encode(&mut stream);
            let from_wire = Frame::read_from(&mut &stream[..]).unwrap().unwrap();
            for f in [&from_vec, &from_slice, &from_wire] {
                let inline = matches!(f.payload.0, Repr::Inline { .. });
                assert_eq!(inline, len <= INLINE_CAP, "len {len}");
                assert_eq!(&f.payload[..], &bytes[..]);
                assert_eq!(f, &from_slice);
                assert_eq!(f.clone(), from_slice);
                assert_eq!(f.encoded_len(), 20 + len as u64);
                assert_eq!(stream.len() as u64, f.encoded_len());
                assert_eq!(format!("{:?}", f.payload), format!("{bytes:?}"));
            }
        }
        assert_eq!(Payload::default(), Payload::from(Vec::new()));
    }

    #[test]
    fn roundtrips_through_a_stream() {
        let frames = [
            frame(0, 0, 3, 0, b""),
            frame(12, 7, 0, 2, b"\x01"),
            frame(u32::MAX, u32::MAX, 255, u32::MAX, &[0xAB; 100]),
        ];
        let mut stream = Vec::new();
        let mut bytes = 0u64;
        for f in &frames {
            f.encode(&mut stream);
            bytes += f.encoded_len();
            assert_eq!(
                bytes,
                stream.len() as u64,
                "encoded_len reports exact wire bytes"
            );
            assert_eq!(f.encoded_len(), 20 + f.payload.len() as u64);
        }
        let mut r = &stream[..];
        for f in &frames {
            assert_eq!(Frame::read_from(&mut r).unwrap().as_ref(), Some(f));
        }
        // Clean EOF after the last frame reads as a closed link.
        assert_eq!(Frame::read_from(&mut r).unwrap(), None);
    }

    #[test]
    fn height_survives_the_wire() {
        let mut stream = Vec::new();
        frame(41, 2, 9, 1, b"hi").encode(&mut stream);
        let mut r = &stream[..];
        let back = Frame::read_from(&mut r).unwrap().unwrap();
        assert_eq!(back.height, 41);
        assert_eq!(back.round, 2);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut stream = Vec::new();
        frame(0, 1, 2, 3, b"abcdef").encode(&mut stream);
        stream.truncate(stream.len() - 2);
        let mut r = &stream[..];
        assert!(Frame::read_from(&mut r).is_err());
    }

    #[test]
    fn corrupt_length_is_rejected_before_allocating() {
        // Declared length below the header size.
        let mut r: &[u8] = &5u32.to_le_bytes();
        assert!(Frame::read_from(&mut r).is_err());
        // Declared length absurdly large.
        let big = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut r: &[u8] = &big;
        assert!(Frame::read_from(&mut r).is_err());
    }

    /// Deterministic xorshift64* generator — the fuzz corpus must be
    /// reproducible from the printed seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545F4914F6CDD1D)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    /// A reader that hands out at most `chunk` bytes per `read` call —
    /// partial reads, the normal case on a real nonblocking-then-readable
    /// socket, must decode identically to one contiguous slice.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let k = self.chunk.min(buf.len()).min(self.data.len());
            buf[..k].copy_from_slice(&self.data[..k]);
            self.data = &self.data[k..];
            Ok(k)
        }
    }

    #[test]
    fn every_torn_prefix_of_a_valid_stream_errors_or_ends_cleanly() {
        // Cut a valid multi-frame stream at every byte offset: decoding
        // the prefix must either yield complete frames and a clean EOF
        // (cut on a frame boundary) or a truncation error — never a panic,
        // never a phantom frame.
        let mut stream = Vec::new();
        let frames = [
            frame(1, 0, 2, 0, b"ab"),
            frame(1, 1, 7, 3, b""),
            frame(2, 9, 1, 1, &[0x5A; 33]),
            frame(2, 9, 1, 2, &[0x11; INLINE_CAP - 1]),
            frame(2, 9, 1, 3, &[0x22; INLINE_CAP]),
            frame(2, 9, 1, 4, &[0x33; INLINE_CAP + 1]),
        ];
        let mut boundaries = vec![0usize];
        for f in &frames {
            f.encode(&mut stream);
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let mut r = &stream[..cut];
            let mut decoded = 0usize;
            let outcome = loop {
                match Frame::read_from(&mut r) {
                    Ok(Some(f)) => {
                        assert_eq!(f, frames[decoded], "cut at {cut}");
                        decoded += 1;
                    }
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            if boundaries.contains(&cut) {
                assert!(outcome.is_ok(), "boundary cut at {cut} should be clean EOF");
                assert_eq!(
                    decoded,
                    boundaries.iter().filter(|&&b| b <= cut).count() - 1
                );
            } else {
                assert!(outcome.is_err(), "mid-frame cut at {cut} must error");
            }
        }
    }

    #[test]
    fn partial_reads_decode_identically_to_contiguous_reads() {
        let mut stream = Vec::new();
        let mut frames = vec![
            frame(0, 3, 1, 0, b"tiny"),
            frame(4, 0, 0, 9, &[0xC3; 257]),
            frame(0, 1, 2, 3, b""),
        ];
        for (seq, len) in BOUNDARY_LENS.into_iter().enumerate() {
            frames.push(frame(1, 2, 3, seq as u32, &vec![seq as u8 + 1; len]));
        }
        for f in &frames {
            f.encode(&mut stream);
        }
        for chunk in [1, 2, 3, 7, 16, 4096] {
            let mut r = Chunked {
                data: &stream,
                chunk,
            };
            for f in &frames {
                assert_eq!(Frame::read_from(&mut r).unwrap().as_ref(), Some(f));
            }
            assert_eq!(Frame::read_from(&mut r).unwrap(), None);
        }
    }

    #[test]
    fn oversized_length_prefixes_never_allocate_or_panic() {
        for declared in [
            MAX_FRAME_LEN as u32 + 1,
            1 << 28,
            u32::MAX / 2,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let mut corrupt = declared.to_le_bytes().to_vec();
            corrupt.extend_from_slice(&[0u8; 64]);
            let mut r = &corrupt[..];
            let err = Frame::read_from(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {declared}");
        }
    }

    #[test]
    fn garbage_byte_fuzz_errors_cleanly_and_never_panics() {
        // 2000 random byte strings, plus valid streams with random
        // corruption — every outcome must be Ok or Err, reached without
        // panicking and without reading past the input.
        let mut rng = Rng(0x0DDB1A5E5BAD5EED);
        for case in 0..2000u32 {
            let len = rng.below(96);
            let garbage = rng.bytes(len);
            let mut r = &garbage[..];
            loop {
                match Frame::read_from(&mut r) {
                    Ok(Some(_)) => continue, // garbage can spell a frame
                    Ok(None) => break,
                    Err(_) => break,
                }
            }
            // Corrupt one byte of an otherwise valid stream.
            let mut stream = Vec::new();
            let payload_len = rng.below(40);
            frame(case, case % 7, case % 5, case % 3, &rng.bytes(payload_len)).encode(&mut stream);
            let pos = rng.below(stream.len());
            stream[pos] ^= (rng.next() as u8) | 1;
            let mut r = Chunked {
                data: &stream,
                chunk: 1 + rng.below(8),
            };
            loop {
                match Frame::read_from(&mut r) {
                    Ok(Some(_)) => continue, // a flipped payload bit still parses
                    Ok(None) => break,
                    Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn random_valid_frames_roundtrip_through_chunked_readers() {
        let mut rng = Rng(0xF00DF4CE);
        for _ in 0..200 {
            let payload_len = rng.below(300);
            let f = frame(
                rng.next() as u32,
                rng.next() as u32,
                rng.next() as u32,
                rng.next() as u32,
                &rng.bytes(payload_len),
            );
            let mut stream = Vec::new();
            f.encode(&mut stream);
            assert_eq!(stream.len() as u64, f.encoded_len());
            let mut r = Chunked {
                data: &stream,
                chunk: 1 + rng.below(9),
            };
            assert_eq!(Frame::read_from(&mut r).unwrap(), Some(f));
        }
    }
}
