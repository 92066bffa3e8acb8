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
//! same size. A batch of walks is evaluated eight lanes abreast (`walk`).
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
        walk::<_, 1, INVERSE>(std::slice::from_mut(&mut v), |&x| (self, x), |v, y| *v = y);
        v
    }
}

/// How many jobs the batched walks of [`crate::ports::PortMap`] advance
/// abreast.
pub(crate) const LANES: usize = 8;

/// The cipher, walked in refilling lanes.
///
/// Every item names one job, `job(item) = (perm, x)`: walk `x` through
/// `perm` forward ([`Perm::apply`]) or, if `INVERSE`, backward
/// ([`Perm::invert`]), and hand the result to `done` with its item. Up to
/// `L` jobs advance in lockstep through the Feistel rounds, each lane with
/// its own permutation. After every evaluation, a lane whose walk has
/// landed inside its domain delivers and takes the next job, so one long
/// cycle walk never holds the other lanes back. One lane is the plain
/// serial walk; eight give the core eight independent multiply chains
/// instead of one, and move the branch that ends a walk off the chain's
/// critical path.
///
/// Jobs are taken in item order; `done` sees items in completion order.
///
/// # Panics
///
/// Panics if a job's `x` lies outside its permutation's domain.
pub(crate) fn walk<'p, T, const L: usize, const INVERSE: bool>(
    items: &mut [T],
    job: impl Fn(&T) -> (&'p Perm, u64),
    mut done: impl FnMut(&mut T, u64),
) {
    const { assert!(L >= 1 && L <= 32, "one bit per lane in a u32") };
    let width = items.len().min(L);
    let mut lanes = Lanes::<L>::idle();
    for (l, item) in items[..width].iter().enumerate() {
        lanes.load::<INVERSE>(l, l, job(item));
    }
    let (mut next, mut live) = (width, width);
    while live > 0 {
        lanes.encipher(width);
        // Outside the domain, a lane's value is the next step's input, and
        // its halves are already in place: only landed lanes need work.
        let mut landed = lanes.landed::<INVERSE>(width);
        while landed != 0 {
            let l = landed.trailing_zeros() as usize;
            landed &= landed - 1;
            done(&mut items[lanes.item[l]], lanes.join::<INVERSE>(l));
            if next < items.len() {
                lanes.load::<INVERSE>(l, next, job(&items[next]));
                next += 1;
            } else {
                lanes.domain[l] = 0;
                live -= 1;
            }
        }
    }
}

/// The state of `L` lanes of [`walk`].
///
/// Deciphering runs the enciphering round on swapped halves with the keys
/// reversed, so both directions share [`Lanes::encipher`]: a lane holds
/// `(p, q) = (left, right)` forward and `(right, left)` backward.
struct Lanes<const L: usize> {
    p: [u64; L],
    q: [u64; L],
    /// Round keys, round-major, in the order the direction applies them.
    keys: [[u64; L]; ROUNDS],
    half_bits: [u32; L],
    mask: [u64; L],
    /// Each lane's domain size; 0 once the lane has no job left, so that
    /// it never lands.
    domain: [u64; L],
    /// The item each lane walks.
    item: [usize; L],
}

impl<const L: usize> Lanes<L> {
    fn idle() -> Self {
        Lanes {
            p: [0; L],
            q: [0; L],
            keys: [[0; L]; ROUNDS],
            half_bits: [0; L],
            mask: [0; L],
            domain: [0; L],
            item: [0; L],
        }
    }

    /// Starts lane `l` on item `i`'s job.
    fn load<const INVERSE: bool>(&mut self, l: usize, i: usize, (perm, x): (&Perm, u64)) {
        assert!(x < perm.domain, "input {x} outside domain {}", perm.domain);
        for (r, keys) in self.keys.iter_mut().enumerate() {
            keys[l] = perm.keys[if INVERSE { ROUNDS - 1 - r } else { r }];
        }
        let h = perm.half_bits;
        self.half_bits[l] = h;
        self.mask[l] = (1u64 << h) - 1;
        self.domain[l] = perm.domain;
        self.item[l] = i;
        let (hi, lo) = (x >> h, x & self.mask[l]);
        (self.p[l], self.q[l]) = if INVERSE { (lo, hi) } else { (hi, lo) };
    }

    /// Lane `l`'s current value, in the carrier of its permutation.
    fn join<const INVERSE: bool>(&self, l: usize) -> u64 {
        let (hi, lo) = if INVERSE {
            (self.q[l], self.p[l])
        } else {
            (self.p[l], self.q[l])
        };
        (hi << self.half_bits[l]) | lo
    }

    /// A bit per lane among the first `width`: set if its value lies inside
    /// its domain.
    fn landed<const INVERSE: bool>(&self, width: usize) -> u32 {
        let mut landed = 0;
        for l in 0..width.min(L) {
            landed |= u32::from(self.join::<INVERSE>(l) < self.domain[l]) << l;
        }
        landed
    }

    /// One cipher evaluation on each of the first `width` lanes, idle ones
    /// included: they compute garbage nobody reads, rather than branch.
    // Indexing four arrays by lane compiles tighter here than zipping them.
    #[allow(clippy::needless_range_loop)]
    fn encipher(&mut self, width: usize) {
        let width = width.min(L);
        for keys in &self.keys {
            for l in 0..width {
                let next = self.p[l] ^ (round_fn(self.q[l], keys[l]) & self.mask[l]);
                self.p[l] = self.q[l];
                self.q[l] = next;
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
            walk::<_, LANES, false>(&mut fwd, |&(x, _)| (&p, x), |j, y| j.1 = y);
            let mut inv: Vec<(u64, u64)> = (0..d).map(|y| (y, 0)).collect();
            walk::<_, LANES, true>(&mut inv, |&(y, _)| (&p, y), |j, x| j.1 = x);
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
    fn every_live_lane_count_walks_its_own_permutation() {
        // Batches of 1..=8 jobs, each job on a different permutation (and
        // so a different carrier/domain ratio), with repeats so that long
        // walks overlap refills.
        let perms: Vec<Perm> = WALK_DOMAINS
            .iter()
            .enumerate()
            .map(|(i, &d)| Perm::new(d, i as u64 * 0x9E37))
            .collect();
        for live in 1..=LANES {
            for start in 0..perms.len() {
                let jobs: Vec<(usize, u64)> = (0..live)
                    .map(|j| {
                        let k = (start + j * 5) % perms.len();
                        (k, (start as u64 * 7919 + j as u64) % perms[k].domain)
                    })
                    .collect();
                for (inverse, step) in
                    [(false, encipher as fn(&Perm, u64) -> u64), (true, decipher)]
                {
                    let mut items: Vec<(usize, u64, Option<u64>)> =
                        jobs.iter().map(|&(k, x)| (k, x, None)).collect();
                    let job = |&(k, x, _): &(usize, u64, Option<u64>)| (&perms[k], x);
                    let done = |it: &mut (usize, u64, Option<u64>), v| {
                        assert!(it.2.is_none(), "job delivered twice");
                        it.2 = Some(v);
                    };
                    if inverse {
                        walk::<_, LANES, true>(&mut items, job, done);
                    } else {
                        walk::<_, LANES, false>(&mut items, job, done);
                    }
                    for &(k, x, got) in &items {
                        assert_eq!(
                            got,
                            Some(oracle(&perms[k], x, step)),
                            "live {live}, domain {}, inverse {inverse}, x {x}",
                            perms[k].domain
                        );
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
        walk::<_, LANES, false>(&mut xs, |&x| (&p, x), |x, v| *x = v);
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
