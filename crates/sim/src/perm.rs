//! Format-preserving pseudorandom permutations over arbitrary domains.
//!
//! The KT0 model wires every node's `n-1` ports to its neighbours by a
//! uniformly random permutation. Materialising those permutations costs
//! `O(n)` memory **per node** — `O(n²)` total — which caps experiments at a
//! few thousand nodes. Instead we evaluate the permutation lazily with a
//! keyed [Feistel network] over the smallest power-of-two square that covers
//! the domain, using *cycle walking* to restrict it to `[0, domain)`.
//!
//! Both directions (`apply`, `invert`) run in expected `O(1)`, and the
//! constant is the carrier-to-domain ratio: averaged over the domain, a
//! walk takes at most `4^h / domain` cipher evaluations, where `4^h` is the
//! carrier. That ratio lies in `[1, 4]`. It is 1.0 at a domain of 256 or
//! 1024, 2.0 at 2047 and ≈ 4 at `4^h + 1`, so a node's ports cost up to
//! four times more to resolve in one network than in one of nearly the
//! same size. A batch of walks on one permutation is evaluated eight lanes
//! abreast (`walk`). A [`crate::ports::PortMap`] that has walked as many
//! ports as it has stops walking: it tabulates its permutation once and
//! reads the table from then on, so the lazy evaluation is what a node
//! pays only until its traffic would have paid for the table anyway.
//!
//! This is a simulation-quality PRP (statistically well-mixed, deterministic
//! per seed), **not** a cryptographic one.
//!
//! [Feistel network]: https://en.wikipedia.org/wiki/Feistel_cipher

/// Number of Feistel rounds. Four rounds of a strong round function are the
/// classical Luby–Rackoff threshold; we use six for extra mixing margin.
const ROUNDS: usize = 6;

/// A keyed pseudorandom permutation of `0..domain`.
///
/// ```
/// use ftc_sim::perm::Perm;
///
/// let p = Perm::new(1000, 0xfeed);
/// let mut seen = vec![false; 1000];
/// for x in 0..1000 {
///     let y = p.apply(x);
///     assert!(y < 1000 && !seen[y as usize]);
///     seen[y as usize] = true;
///     assert_eq!(p.invert(y), x);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Perm {
    domain: u64,
    /// Bits in each Feistel half; the cipher permutes `0..2^(2*half_bits)`.
    half_bits: u32,
    keys: [u64; ROUNDS],
}

impl Perm {
    /// Creates the permutation of `0..domain` determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0`.
    pub fn new(domain: u64, seed: u64) -> Self {
        assert!(domain > 0, "permutation domain must be non-empty");
        // Smallest `2h` such that `4^h >= domain`; minimum one bit per half so
        // the Feistel structure is well-formed even for tiny domains.
        let mut half_bits = 1;
        while (1u128 << (2 * half_bits)) < domain as u128 {
            half_bits += 1;
        }
        let mut keys = [0u64; ROUNDS];
        let mut s = seed;
        for k in keys.iter_mut() {
            s = splitmix64(s);
            *k = s;
        }
        Perm {
            domain,
            half_bits,
            keys,
        }
    }

    /// The size of the permuted domain.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Maps `x` to its image under the permutation (the lane walker, run
    /// with one lane).
    ///
    /// # Panics
    ///
    /// Panics if `x >= domain`.
    pub fn apply(&self, x: u64) -> u64 {
        self.walk_one::<false>(x)
    }

    /// Maps `y` back to its preimage under the permutation (the lane
    /// walker, run with one lane).
    ///
    /// # Panics
    ///
    /// Panics if `y >= domain`.
    pub fn invert(&self, y: u64) -> u64 {
        self.walk_one::<true>(y)
    }

    fn walk_one<const INVERSE: bool>(&self, x: u64) -> u64 {
        let mut v = x;
        walk::<_, 1, INVERSE>(self, std::slice::from_mut(&mut v), |&x| x, |v, y| *v = y);
        v
    }
}

/// How many jobs the batched walks of [`crate::ports::PortMap`] advance
/// abreast.
pub(crate) const LANES: usize = 8;

/// The cipher, walked in refilling lanes.
///
/// Every item names one job: walk `x_of(item)` through `perm` forward
/// ([`Perm::apply`]) or, if `INVERSE`, backward ([`Perm::invert`]), and
/// hand the result to `done` with its item. Up to `L` jobs advance in
/// lockstep through the Feistel rounds. After every evaluation, a lane
/// whose walk has landed inside the domain delivers and takes the next
/// job, so one long cycle walk never holds the other lanes back. One lane
/// is the plain serial walk; eight give the core eight independent
/// multiply chains instead of one, and move the branch that ends a walk
/// off the chain's critical path.
///
/// Deciphering runs the enciphering round on swapped halves with the keys
/// reversed, so both directions share one round loop: a lane holds
/// `(p, q) = (left, right)` forward and `(right, left)` backward.
///
/// Jobs are taken in item order; `done` sees items in completion order.
///
/// # Panics
///
/// Panics if a job's `x` lies outside the permutation's domain.
// Indexing the lane arrays compiles tighter here than zipping them.
#[allow(clippy::needless_range_loop)]
pub(crate) fn walk<T, const L: usize, const INVERSE: bool>(
    perm: &Perm,
    items: &mut [T],
    x_of: impl Fn(&T) -> u64,
    mut done: impl FnMut(&mut T, u64),
) {
    const { assert!(L >= 1 && L <= 32, "one bit per lane in a u32") };
    if items.is_empty() {
        return;
    }
    let mut keys = perm.keys;
    if INVERSE {
        keys.reverse();
    }
    let (h, domain) = (perm.half_bits, perm.domain);
    let mask = (1u64 << h) - 1;
    let split = |x: u64| {
        assert!(x < domain, "input {x} outside domain {domain}");
        let (hi, lo) = (x >> h, x & mask);
        if INVERSE {
            (lo, hi)
        } else {
            (hi, lo)
        }
    };
    let join = |p: u64, q: u64| if INVERSE { (q << h) | p } else { (p << h) | q };

    let width = items.len().min(L);
    let (mut p, mut q, mut item) = ([0u64; L], [0u64; L], [0usize; L]);
    for l in 0..width {
        (p[l], q[l]) = split(x_of(&items[l]));
        item[l] = l;
    }
    let mut next = width;
    // One bit per lane that still has a job.
    let mut live = u32::MAX >> (32 - width);
    while live != 0 {
        // One evaluation on every lane, idle ones included: they compute
        // garbage nobody reads, rather than branch.
        for key in keys {
            for l in 0..width {
                let t = p[l] ^ (round_fn(q[l], key) & mask);
                p[l] = q[l];
                q[l] = t;
            }
        }
        // Outside the domain, a lane's value is the next step's input, and
        // its halves are already in place: only landed lanes need work.
        let mut landed = 0u32;
        for l in 0..width {
            landed |= u32::from(join(p[l], q[l]) < domain) << l;
        }
        landed &= live;
        while landed != 0 {
            let l = landed.trailing_zeros() as usize;
            landed &= landed - 1;
            done(&mut items[item[l]], join(p[l], q[l]));
            if next < items.len() {
                (p[l], q[l]) = split(x_of(&items[next]));
                item[l] = next;
                next += 1;
            } else {
                live &= !(1 << l);
            }
        }
    }
}

/// SplitMix64 step — fast, well-distributed 64-bit mixer used both for key
/// scheduling and as the Feistel round function core.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn round_fn(half: u64, key: u64) -> u64 {
    splitmix64(half ^ key)
}

/// Derives an independent 64-bit stream seed from a base seed and a salt.
///
/// Used across the simulator to give every (trial, node, subsystem) its own
/// deterministic RNG stream: `stream_seed(stream_seed(base, trial), node)`.
#[inline]
pub fn stream_seed(base: u64, salt: u64) -> u64 {
    splitmix64(base ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial cipher the walker replaced, kept as its oracle.
    fn encipher(p: &Perm, x: u64) -> u64 {
        let mask = (1u64 << p.half_bits) - 1;
        let mut left = x >> p.half_bits;
        let mut right = x & mask;
        for key in &p.keys {
            let next_left = right;
            right = left ^ (round_fn(right, *key) & mask);
            left = next_left;
        }
        (left << p.half_bits) | right
    }

    fn decipher(p: &Perm, y: u64) -> u64 {
        let mask = (1u64 << p.half_bits) - 1;
        let mut left = y >> p.half_bits;
        let mut right = y & mask;
        for key in p.keys.iter().rev() {
            let next_right = left;
            left = right ^ (round_fn(left, *key) & mask);
            right = next_right;
        }
        (left << p.half_bits) | right
    }

    /// Cycle-walks `x` through `step` until it lands inside the domain.
    fn oracle(p: &Perm, x: u64, step: fn(&Perm, u64) -> u64) -> u64 {
        let mut y = step(p, x);
        while y >= p.domain {
            y = step(p, y);
        }
        y
    }

    const WALK_DOMAINS: [u64; 17] = [
        1, 2, 3, 5, 16, 17, 63, 64, 65, 255, 1023, 1024, 1025, 2047, 4095, 4097, 65535,
    ];

    #[test]
    fn walker_matches_the_serial_oracle_on_every_input() {
        for d in WALK_DOMAINS {
            let p = Perm::new(d, 0x1A9E ^ d);
            let mut fwd: Vec<(u64, u64)> = (0..d).map(|x| (x, 0)).collect();
            walk::<_, LANES, false>(&p, &mut fwd, |&(x, _)| x, |j, y| j.1 = y);
            let mut inv: Vec<(u64, u64)> = (0..d).map(|y| (y, 0)).collect();
            walk::<_, LANES, true>(&p, &mut inv, |&(y, _)| y, |j, x| j.1 = x);
            for x in 0..d {
                let y = oracle(&p, x, encipher);
                assert_eq!(fwd[x as usize].1, y, "domain {d}: lanes apply({x})");
                assert_eq!(p.apply(x), y, "domain {d}: apply({x})");
                let back = oracle(&p, x, decipher);
                assert_eq!(inv[x as usize].1, back, "domain {d}: lanes invert({x})");
                assert_eq!(p.invert(x), back, "domain {d}: invert({x})");
            }
        }
    }

    #[test]
    fn every_live_lane_count_walks_one_permutation() {
        // Batches of 1..=8 jobs on each permutation (and so each
        // carrier/domain ratio), with repeats so that long walks overlap
        // refills and lanes retire out of order.
        for (i, &d) in WALK_DOMAINS.iter().enumerate() {
            let perm = Perm::new(d, i as u64 * 0x9E37);
            for live in 1..=LANES {
                for start in 0..8u64 {
                    let xs: Vec<u64> = (0..live as u64)
                        .map(|j| (start * 7919 + j * 5 + j / 2) % d)
                        .collect();
                    for (inverse, step) in
                        [(false, encipher as fn(&Perm, u64) -> u64), (true, decipher)]
                    {
                        let mut items: Vec<(u64, Option<u64>)> =
                            xs.iter().map(|&x| (x, None)).collect();
                        let x_of = |&(x, _): &(u64, Option<u64>)| x;
                        let done = |it: &mut (u64, Option<u64>), v| {
                            assert!(it.1.is_none(), "job delivered twice");
                            it.1 = Some(v);
                        };
                        if inverse {
                            walk::<_, LANES, true>(&perm, &mut items, x_of, done);
                        } else {
                            walk::<_, LANES, false>(&perm, &mut items, x_of, done);
                        }
                        for &(x, got) in &items {
                            assert_eq!(
                                got,
                                Some(oracle(&perm, x, step)),
                                "live {live}, domain {d}, inverse {inverse}, x {x}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn a_batched_job_outside_its_domain_panics() {
        let p = Perm::new(10, 0);
        let mut xs = [3u64, 10];
        walk::<_, LANES, false>(&p, &mut xs, |&x| x, |x, v| *x = v);
    }

    fn assert_is_permutation(domain: u64, seed: u64) {
        let p = Perm::new(domain, seed);
        let mut seen = vec![false; domain as usize];
        for x in 0..domain {
            let y = p.apply(x);
            assert!(y < domain, "image out of domain");
            assert!(!seen[y as usize], "collision at {y}");
            seen[y as usize] = true;
            assert_eq!(p.invert(y), x, "inverse mismatch");
        }
    }

    #[test]
    fn bijective_on_assorted_domains() {
        for &d in &[1u64, 2, 3, 5, 7, 16, 63, 64, 65, 1000, 4096, 10_007] {
            assert_is_permutation(d, 0xDEAD_BEEF ^ d);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Perm::new(512, 1);
        let b = Perm::new(512, 2);
        let same = (0..512).filter(|&x| a.apply(x) == b.apply(x)).count();
        // Two independent random permutations of 512 agree in ~1 position in
        // expectation; 30 would be astronomically unlikely.
        assert!(
            same < 30,
            "permutations too similar: {same} fixed agreements"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = Perm::new(777, 42);
        let b = Perm::new(777, 42);
        for x in 0..777 {
            assert_eq!(a.apply(x), b.apply(x));
        }
    }

    #[test]
    fn mixes_small_inputs_apart() {
        // Consecutive inputs should not map to consecutive outputs (no
        // affine structure leaking through).
        let p = Perm::new(1 << 16, 99);
        let mut adjacent = 0;
        for x in 0..1000u64 {
            let d = p.apply(x).abs_diff(p.apply(x + 1));
            if d == 1 {
                adjacent += 1;
            }
        }
        assert!(adjacent < 5, "too much local structure: {adjacent}");
    }

    #[test]
    fn stream_seed_separates_salts() {
        let s1 = stream_seed(42, 0);
        let s2 = stream_seed(42, 1);
        assert_ne!(s1, s2);
        assert_ne!(stream_seed(41, 0), s1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_domain_panics() {
        let _ = Perm::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_apply_panics() {
        Perm::new(10, 0).apply(10);
    }

    /// A crude uniformity check: each output bucket of a 4-way split should
    /// receive roughly a quarter of the inputs.
    #[test]
    fn output_buckets_are_balanced() {
        let d = 40_000u64;
        let p = Perm::new(d, 1234);
        let mut buckets = [0u64; 4];
        for x in 0..d {
            buckets[(p.apply(x) * 4 / d) as usize] += 1;
        }
        for &b in &buckets {
            assert!(
                (b as i64 - (d / 4) as i64).abs() <= 2, // exact partition, ±rounding
                "bucket sizes {buckets:?}"
            );
        }
    }
}
