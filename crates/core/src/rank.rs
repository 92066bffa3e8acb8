//! Random ranks: the self-assigned identities of anonymous nodes.
//!
//! The network is anonymous, so each node draws an integer *rank* uniformly
//! from `[1, n⁴]` and uses it as its ID (Section IV-A, footnote 4). The
//! range is chosen so that all `n` ranks are distinct with high probability
//! (a birthday-bound argument: collision probability ≤ `n²/n⁴ = 1/n²`).

use ftc_sim::protocol::Draw;

/// A node's randomly drawn rank (also its self-assigned ID).
///
/// Ordered: the protocol elects (roughly) the smallest surviving rank.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rank(pub u64);

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl Rank {
    /// Draws a uniform rank from `[1, n⁴]` (one [`Draw::uniform`]).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn draw(d: &mut impl Draw, n: u32) -> Rank {
        Rank(1 + d.uniform(0..Rank::domain(n)))
    }

    /// Upper end of the rank domain: `n⁴`, saturating at `u64::MAX` for
    /// `n > 65535` (where `n⁴` no longer fits). Collision probability is
    /// what the domain buys, and the full 64-bit range already gives
    /// `< n²/2⁶⁴` — below `10⁻⁷` even at `n = 10⁶` — so saturation keeps
    /// the whp-distinctness argument intact at every supported size.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn domain(n: u32) -> u64 {
        assert!(n >= 2, "rank domain needs n >= 2");
        u64::from(n).checked_pow(4).unwrap_or(u64::MAX)
    }

    /// Bits needed to transmit a rank (`4·log₂ n`, capped at the 64-bit
    /// word where the domain saturates), for CONGEST sizing.
    pub fn bits(n: u32) -> u32 {
        ftc_sim::payload::bits_for(Rank::domain(n))
    }

    /// Union-bound estimate of the probability that *any* two of `n` drawn
    /// ranks collide: `≤ n(n−1)/2 / domain(n)` — `< 1/n²` while the domain
    /// is the exact `n⁴`, and still `< 10⁻⁷` at `n = 10⁶` after it
    /// saturates to `2⁶⁴ − 1`.
    pub fn collision_probability_bound(n: u32) -> f64 {
        let nf = f64::from(n);
        (nf * (nf - 1.0) / 2.0) / (Rank::domain(n) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::protocol::Stream;

    #[test]
    fn draw_is_in_domain() {
        let mut stream = Stream::seeded(1);
        for _ in 0..1000 {
            let r = Rank::draw(&mut stream, 64);
            assert!(r.0 >= 1 && r.0 <= 64u64.pow(4));
        }
    }

    #[test]
    fn ranks_are_distinct_whp_in_practice() {
        let mut stream = Stream::seeded(7);
        let n = 1024u32;
        let mut ranks: Vec<u64> = (0..n).map(|_| Rank::draw(&mut stream, n).0).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), n as usize, "collision at n=1024 (prob < 1e-6)");
    }

    #[test]
    fn collision_bound_shrinks_quadratically() {
        assert!(Rank::collision_probability_bound(100) < 1.0 / (100.0 * 100.0));
        assert!(
            Rank::collision_probability_bound(1000) < Rank::collision_probability_bound(100) / 99.0
        );
    }

    #[test]
    fn bits_match_four_logs() {
        assert_eq!(Rank::bits(1 << 8), 32);
        assert_eq!(Rank::bits(1 << 10), 40);
    }

    #[test]
    fn oversized_network_saturates() {
        // Above 65535 the n^4 domain no longer fits a u64; the domain
        // saturates instead of panicking so million-node runs work, and
        // the exact n^4 value is preserved right up to the edge.
        assert_eq!(Rank::domain(65_535), 65_535u64.pow(4));
        assert_eq!(Rank::domain(70_000), u64::MAX);
        assert_eq!(Rank::domain(1_000_000), u64::MAX);
        assert_eq!(Rank::bits(1_000_000), 64);
    }

    #[test]
    fn rank_orders_numerically() {
        assert!(Rank(3) < Rank(10));
        assert_eq!(Rank(5).to_string(), "r5");
    }
}
