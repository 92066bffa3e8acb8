//! The multiplexed envelope layer: many node pairs on one socket.
//!
//! A proc-pair socket carries traffic for every `(src, dst)` node pair
//! whose endpoints live on those two procs, so each [`Frame`] is wrapped
//! in an envelope that names its destination node:
//!
//! ```text
//! [dst: u32 LE] [frame bytes — the ftc-net length-prefixed codec]
//! ```
//!
//! `src`, `round`, and `height` already live inside the frame header; the
//! envelope adds only the 4-byte `dst` word the demultiplexer needs.
//! Model byte accounting (`wire_bytes`) deliberately charges
//! [`Frame::encoded_len`] and *not* the envelope word: the frame is what
//! the complete-network model pays for, the envelope is an artifact of
//! how this runtime packs node pairs onto sockets, and excluding it keeps
//! `wire_bytes` bit-identical across the channel and mesh runtimes at any
//! process count.
//!
//! Writes are coalesced: a proc stages a whole round's envelopes for one
//! peer proc into a [`WriteBuf`] and flushes it with few large
//! nonblocking writes, instead of one syscall per protocol message.
//! Reads mirror that: whatever burst `read` returns goes into an
//! [`EnvelopeDecoder`], which hands back complete envelopes and keeps
//! partial tails for the next burst.

use std::io::{self, Write};

use ftc_net::frame::{Frame, HEADER_LEN, MAX_FRAME_LEN};
use ftc_sim::ids::NodeId;

/// Envelope bytes preceding the frame (the `dst` word).
pub const ENVELOPE_PREFIX: usize = 4;

/// Appends one envelope (`dst` word + encoded frame) to `out`.
pub fn encode_envelope(dst: NodeId, frame: &Frame, out: &mut Vec<u8>) {
    out.extend_from_slice(&dst.0.to_le_bytes());
    frame.encode(out);
}

/// Incremental decoder for a stream of envelopes arriving in arbitrary
/// read-sized bursts.
#[derive(Debug, Default)]
pub struct EnvelopeDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted periodically instead of on
    /// every envelope so decoding stays O(bytes).
    pos: usize,
}

impl EnvelopeDecoder {
    /// A fresh decoder with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one burst of bytes from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact once the consumed prefix dominates, amortized O(1).
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (partial envelope tail).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete envelope, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed, and
    /// [`io::ErrorKind::InvalidData`] on a corrupt frame length — the
    /// same validation (and the same `MAX_FRAME_LEN` allocation guard) as
    /// the underlying frame codec.
    #[allow(clippy::should_implement_trait)] // fallible: Result<Option<_>>, not an Iterator
    pub fn next(&mut self) -> io::Result<Option<(NodeId, Frame)>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < ENVELOPE_PREFIX + 4 {
            return Ok(None);
        }
        let dst = u32::from_le_bytes(avail[..4].try_into().unwrap());
        let len = u32::from_le_bytes(avail[4..8].try_into().unwrap()) as usize;
        if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&len) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt frame length {len} in envelope"),
            ));
        }
        let total = ENVELOPE_PREFIX + 4 + len;
        if avail.len() < total {
            return Ok(None);
        }
        let mut r = &avail[ENVELOPE_PREFIX..total];
        let frame = Frame::read_from(&mut r)?.expect("length checked above");
        self.pos += total;
        Ok(Some((NodeId(dst), frame)))
    }
}

/// A per-peer coalescing write buffer flushed with nonblocking writes.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one envelope for the peer this buffer belongs to.
    pub fn stage(&mut self, dst: NodeId, frame: &Frame) {
        encode_envelope(dst, frame, &mut self.buf);
    }

    /// Nothing staged or everything flushed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes staged but not yet accepted by the socket.
    pub(crate) fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Writes as much staged data as the socket accepts right now.
    ///
    /// Returns whether any bytes moved. `WouldBlock` is backpressure, not
    /// an error: the caller keeps draining its own inbound sockets (so
    /// peers can make progress) and retries. Hard write errors propagate —
    /// in this runtime every socket peer lives in the same OS process, so
    /// a failed write is a bug, never a model event.
    pub fn flush_into<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        let mut progressed = false;
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.is_empty() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(round: u32, src: u32, seq: u32, payload: &[u8]) -> Frame {
        Frame {
            height: 0,
            round,
            src: NodeId(src),
            seq,
            payload: payload.into(),
        }
    }

    #[test]
    fn envelopes_roundtrip_byte_by_byte() {
        let items = [
            (NodeId(3), frame(0, 1, 0, b"hello")),
            (NodeId(900_000), frame(7, 2, 4, b"")),
            (NodeId(0), frame(1, 5, 1, &[0xEE; 200])),
        ];
        let mut stream = Vec::new();
        for (dst, f) in &items {
            encode_envelope(*dst, f, &mut stream);
        }
        // Feed one byte at a time — the worst read fragmentation possible.
        let mut dec = EnvelopeDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.extend(std::slice::from_ref(b));
            while let Some(pair) = dec.next().unwrap() {
                got.push(pair);
            }
        }
        assert_eq!(got, items.to_vec());
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn payloads_on_both_sides_of_the_inline_boundary_survive_every_burst_split() {
        // Lengths 0..=40 straddle a frame's inline payload capacity
        // wherever under 40 it sits; 64 KiB is far beyond it.
        let mut items: Vec<(NodeId, Frame)> = (0..=40u32)
            .map(|len| {
                (
                    NodeId(len),
                    frame(1, 2, len, &vec![len as u8; len as usize]),
                )
            })
            .collect();
        let flushed = |items: &[(NodeId, Frame)]| {
            let mut staged = WriteBuf::new();
            for (dst, f) in items {
                staged.stage(*dst, f);
            }
            let mut stream = Vec::new();
            staged.flush_into(&mut stream).unwrap();
            stream
        };
        let decoded = |bursts: &mut dyn Iterator<Item = &[u8]>| {
            let mut dec = EnvelopeDecoder::new();
            let mut got = Vec::new();
            for burst in bursts {
                dec.extend(burst);
                while let Some(pair) = dec.next().unwrap() {
                    got.push(pair);
                }
            }
            assert_eq!(dec.pending_bytes(), 0);
            got
        };
        let stream = flushed(&items);
        for split in 0..=stream.len() {
            let (head, tail) = stream.split_at(split);
            assert_eq!(
                decoded(&mut [head, tail].into_iter()),
                items,
                "split {split}"
            );
        }
        items.push((NodeId(7), frame(0, 1, 0, &vec![0xAB; 64 << 10])));
        let stream = flushed(&items);
        for burst in [1, 7, 4096, 64 << 10] {
            assert_eq!(decoded(&mut stream.chunks(burst)), items, "burst {burst}");
        }
    }

    #[test]
    fn corrupt_length_in_envelope_is_an_error() {
        let mut dec = EnvelopeDecoder::new();
        let mut bad = Vec::new();
        bad.extend_from_slice(&7u32.to_le_bytes()); // dst
        bad.extend_from_slice(&3u32.to_le_bytes()); // len < HEADER_LEN
        dec.extend(&bad);
        assert!(dec.next().is_err());
    }

    /// Deterministic xorshift64* — the same fuzz driver idiom as the
    /// `ftc-net` frame codec tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_stream(rng: &mut Rng, frames: usize) -> (Vec<(NodeId, Frame)>, Vec<u8>) {
        let mut items = Vec::new();
        let mut stream = Vec::new();
        for _ in 0..frames {
            let payload: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
            let item = (
                NodeId(rng.below(1 << 20) as u32),
                frame(
                    rng.below(100) as u32,
                    rng.below(4096) as u32,
                    rng.below(1 << 16) as u32,
                    &payload,
                ),
            );
            encode_envelope(item.0, &item.1, &mut stream);
            items.push(item);
        }
        (items, stream)
    }

    #[test]
    fn fuzz_split_streams_decode_exactly() {
        // Valid envelope streams fed in adversarial read-sized fragments
        // must decode to exactly the encoded sequence — the torn-frame
        // path a scheduled `Tear` wire fault exercises on a live socket.
        let mut rng = Rng(0x5EED_0001);
        for _ in 0..200 {
            let count = 1 + rng.below(8) as usize;
            let (items, stream) = random_stream(&mut rng, count);
            let mut dec = EnvelopeDecoder::new();
            let mut got = Vec::new();
            let mut pos = 0;
            while pos < stream.len() {
                let chunk = 1 + rng.below(13) as usize;
                let end = (pos + chunk).min(stream.len());
                dec.extend(&stream[pos..end]);
                pos = end;
                while let Some(pair) = dec.next().expect("valid stream") {
                    got.push(pair);
                }
            }
            assert_eq!(got, items);
            assert_eq!(dec.pending_bytes(), 0);
        }
    }

    #[test]
    fn fuzz_duplicated_and_interleaved_streams_decode_exactly() {
        // A duplicated stream (every envelope twice — the wire form of a
        // `Duplicate` fault) and two independent streams interleaved at
        // arbitrary burst boundaries (two peers sharing a decoder's
        // lifetime) both decode exactly: dedup is the *adapter's* job,
        // the decoder reports precisely what arrived.
        let mut rng = Rng(0x5EED_0002);
        for _ in 0..100 {
            let count = 1 + rng.below(5) as usize;
            let (items, stream) = random_stream(&mut rng, count);
            let mut doubled = Vec::new();
            for (dst, f) in &items {
                encode_envelope(*dst, f, &mut doubled);
                encode_envelope(*dst, f, &mut doubled);
            }
            let mut dec = EnvelopeDecoder::new();
            // Feed the doubled stream, then the original again, byte by
            // byte in random-sized bursts.
            for chunk in doubled.chunks(1 + rng.below(7) as usize) {
                dec.extend(chunk);
            }
            for chunk in stream.chunks(1 + rng.below(7) as usize) {
                dec.extend(chunk);
            }
            let mut got = Vec::new();
            while let Some(pair) = dec.next().expect("valid stream") {
                got.push(pair);
            }
            let mut expected = Vec::new();
            for item in &items {
                expected.push(item.clone());
                expected.push(item.clone());
            }
            expected.extend(items.iter().cloned());
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn fuzz_garbage_streams_error_or_starve_but_never_panic() {
        // Arbitrary bytes through the decoder: every outcome must be a
        // clean `Ok(Some)`, `Ok(None)`, or `Err` — no panic, no runaway
        // allocation (the MAX_FRAME_LEN guard), regardless of how the
        // garbage fragments.
        let mut rng = Rng(0x5EED_0003);
        for _ in 0..300 {
            let len = rng.below(160) as usize;
            let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let mut dec = EnvelopeDecoder::new();
            let mut pos = 0;
            'outer: while pos < garbage.len() {
                let end = (pos + 1 + rng.below(9) as usize).min(garbage.len());
                dec.extend(&garbage[pos..end]);
                pos = end;
                loop {
                    match dec.next() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => break 'outer, // corrupt length: done
                    }
                }
            }
        }
    }

    #[test]
    fn fuzz_valid_prefix_then_corruption_yields_prefix_then_error() {
        // A valid stream with one length word smashed afterwards: the
        // decoder must hand back every envelope before the corruption,
        // then report InvalidData — exact-or-error, nothing silently
        // skipped.
        let mut rng = Rng(0x5EED_0004);
        for _ in 0..100 {
            let count = 1 + rng.below(6) as usize;
            let (items, mut stream) = random_stream(&mut rng, count);
            stream.extend_from_slice(&9u32.to_le_bytes()); // dst of a new envelope
            stream.extend_from_slice(&3u32.to_le_bytes()); // len < HEADER_LEN: corrupt
            let mut dec = EnvelopeDecoder::new();
            for chunk in stream.chunks(1 + rng.below(11) as usize) {
                dec.extend(chunk);
            }
            let mut got = Vec::new();
            let err = loop {
                match dec.next() {
                    Ok(Some(pair)) => got.push(pair),
                    Ok(None) => panic!("corruption must surface as an error"),
                    Err(e) => break e,
                }
            };
            assert_eq!(got, items, "the valid prefix decodes exactly");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn write_buf_coalesces_and_survives_short_writes() {
        /// Accepts at most 5 bytes per call, then signals WouldBlock once.
        struct Throttled {
            sink: Vec<u8>,
            starve: bool,
        }
        impl Write for Throttled {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.starve {
                    self.starve = false;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                self.starve = true;
                let k = buf.len().min(5);
                self.sink.extend_from_slice(&buf[..k]);
                Ok(k)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut wb = WriteBuf::new();
        let items = [
            (NodeId(1), frame(2, 0, 0, b"abc")),
            (NodeId(2), frame(2, 0, 1, b"defgh")),
        ];
        for (dst, f) in &items {
            wb.stage(*dst, f);
        }
        let mut w = Throttled {
            sink: Vec::new(),
            starve: false,
        };
        while !wb.is_empty() {
            wb.flush_into(&mut w).unwrap();
        }
        let mut dec = EnvelopeDecoder::new();
        dec.extend(&w.sink);
        let mut got = Vec::new();
        while let Some(pair) = dec.next().unwrap() {
            got.push(pair);
        }
        assert_eq!(got, items.to_vec());
    }
}
