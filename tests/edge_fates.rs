//! Lazy edge-fault sampling against the documented hash.
//!
//! The sparse data plane asks [`EdgeFates`] for each touched edge's fate
//! on demand. Here every pair's answer is checked against an independent
//! restatement of the documented roll: with `lo < hi`, the edge is dead
//! when `stream_seed(stream_seed(seed, 5), lo << 32 | hi) / u64::MAX < p`.
//! One divergent pair would silently change every committed baseline that
//! uses edge failures, so the agreement is pinned exhaustively and the
//! hash itself is pinned against golden values.

use ftc::prelude::*;
use ftc::sim::ids::NodeId;
use ftc::sim::perm::stream_seed;
use ftc::sim::round::EdgeFates;

/// The documented edge roll, restated without the sampler's code.
fn documented_fate(seed: u64, p: f64, lo: u32, hi: u32) -> bool {
    let h = stream_seed(stream_seed(seed, 5), (u64::from(lo) << 32) | u64::from(hi));
    (h as f64 / u64::MAX as f64) < p
}

#[test]
fn lazy_fates_match_eager_cache_on_every_pair() {
    for (case, &(n, p)) in [(48u32, 0.3f64), (17, 0.05), (96, 0.9)].iter().enumerate() {
        let seed = stream_seed(0xED6E, case as u64);
        let cfg = SimConfig::new(n).seed(seed).edge_failure_prob(p);
        let fates = EdgeFates::new(&cfg);
        for a in 0..n {
            for b in (a + 1)..n {
                let want = documented_fate(seed, p, a, b);
                assert_eq!(
                    fates.is_dead(NodeId(a), NodeId(b)),
                    want,
                    "case {case}: edge ({a},{b}) disagrees with the documented roll"
                );
                assert_eq!(
                    fates.is_dead(NodeId(b), NodeId(a)),
                    want,
                    "case {case}: edge ({b},{a}) disagrees with the documented roll"
                );
            }
        }
    }
}

#[test]
fn fates_are_symmetric_and_order_free() {
    let cfg = SimConfig::new(64).seed(0xABCD).edge_failure_prob(0.4);
    let fates = EdgeFates::new(&cfg);
    let pairs: Vec<(u32, u32)> = (0..64u32)
        .flat_map(|a| ((a + 1)..64).map(move |b| (a, b)))
        .collect();
    let reference: Vec<bool> = pairs
        .iter()
        .map(|&(a, b)| fates.is_dead(NodeId(a), NodeId(b)))
        .collect();
    // Re-probe in reverse order and flipped orientation: the fate is a
    // pure function of the unordered pair, never of probe history.
    for (&(a, b), &fate) in pairs.iter().zip(&reference).rev() {
        assert_eq!(fates.is_dead(NodeId(b), NodeId(a)), fate);
    }
}

#[test]
fn fates_depend_on_seed_and_probability() {
    let base = SimConfig::new(128).seed(1).edge_failure_prob(0.5);
    let fates = EdgeFates::new(&base);
    let other_seed = EdgeFates::new(&SimConfig::new(128).seed(2).edge_failure_prob(0.5));
    let mut seed_flips = 0u32;
    for a in 0..128u32 {
        for b in (a + 1)..128 {
            if fates.is_dead(NodeId(a), NodeId(b)) != other_seed.is_dead(NodeId(a), NodeId(b)) {
                seed_flips += 1;
            }
        }
    }
    // Independent 50/50 draws differ on about half the 8128 edges.
    assert!(
        (3000..5200).contains(&seed_flips),
        "seed change flipped {seed_flips} of 8128 edges — fates are not seed-derived"
    );
    // p = 0 kills nothing, ever.
    let none = EdgeFates::new(&SimConfig::new(128).seed(1));
    assert_eq!(none.failure_prob(), 0.0);
    for a in 0..128u32 {
        for b in (a + 1)..128 {
            assert!(!none.is_dead(NodeId(a), NodeId(b)));
        }
    }
}

#[test]
fn edge_failure_density_tracks_probability() {
    let cfg = SimConfig::new(192).seed(0x5EED).edge_failure_prob(0.25);
    let fates = EdgeFates::new(&cfg);
    let mut dead = 0u32;
    let mut total = 0u32;
    for a in 0..192u32 {
        for b in (a + 1)..192 {
            total += 1;
            dead += u32::from(fates.is_dead(NodeId(a), NodeId(b)));
        }
    }
    let density = f64::from(dead) / f64::from(total);
    assert!(
        (density - 0.25).abs() < 0.03,
        "dead-edge density {density} strays from p = 0.25"
    );
}

/// Golden pins: the exact fates of a handful of named edges at a fixed
/// seed. These fail if the edge-hash derivation (salt, packing order,
/// threshold comparison) changes in any way — which would desynchronise
/// every committed record with edge failures.
#[test]
fn golden_edge_fates_are_pinned() {
    let cfg = SimConfig::new(1024).seed(0xF00D).edge_failure_prob(0.5);
    let fates = EdgeFates::new(&cfg);
    let golden: Vec<bool> = [
        (0u32, 1u32),
        (0, 2),
        (1, 2),
        (3, 700),
        (511, 512),
        (0, 1023),
    ]
    .iter()
    .map(|&(a, b)| fates.is_dead(NodeId(a), NodeId(b)))
    .collect();
    assert_eq!(golden, vec![true, true, false, false, false, false]);
}
