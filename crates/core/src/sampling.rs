//! The sampling layer shared by both protocols.
//!
//! Both algorithms start from the same two local random choices
//! (Section IV-A / V-A):
//!
//! 1. **Candidate self-selection**: each node independently makes itself a
//!    candidate with probability `Θ(log n / (α·n))`, so the committee has
//!    `Θ(log n / α)` members and contains a non-faulty node whp
//!    (Lemmas 1–2).
//! 2. **Referee sampling**: each candidate samples `Θ(√(n·log n / α))`
//!    uniformly random nodes, guaranteeing every *pair* of candidates a
//!    common non-faulty referee whp (Lemma 3) — the channel through which
//!    anonymous candidates communicate.
//!
//! The protocols make both through their `Ctx`'s named draws (a
//! [`Draw::coin`], then `Ctx::sample_ports`); [`draw_committee`] makes the
//! same draws for every node over one stream, for experiment E10.

use ftc_sim::protocol::Draw;

use crate::params::Params;

/// One Monte-Carlo draw of the whole sampling layer, for testing the
/// concentration lemmas without running a protocol: returns the candidate
/// node indices and, per candidate, its referee node indices.
///
/// Every node's coin is drawn first, in node order, then each candidate's
/// referees: `referee_count()` distinct uniform ports of the complete
/// graph (Lemma 3), the draw `Ctx::sample_ports` makes.
pub fn draw_committee(d: &mut impl Draw, params: &Params) -> (Vec<usize>, Vec<Vec<usize>>) {
    let n = params.n() as usize;
    let ports = n - 1;
    let count = params.referee_count().min(ports);
    let p = params.candidate_probability();
    let candidates: Vec<usize> = (0..n).filter(|_| d.coin(p)).collect();
    let referees = candidates
        .iter()
        .map(|&c| {
            // Convert ports to global indices by skipping `c` itself.
            d.sample(ports, count)
                .into_iter()
                .map(|k| if k < c { k } else { k + 1 })
                .collect()
        })
        .collect();
    (candidates, referees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_sim::protocol::Stream;

    #[test]
    fn candidate_count_concentrates_lemma1() {
        // Lemma 1: 2·ln n/α ≤ |C| ≤ 12·ln n/α whp.
        let params = Params::new(4096, 0.5).unwrap();
        let lo = 2.0 * params.ln_n() / 0.5;
        let hi = 12.0 * params.ln_n() / 0.5;
        let mut in_range = 0;
        let trials = 200;
        for t in 0..trials {
            let (c, _) = draw_committee(&mut Stream::seeded(t), &params);
            if (c.len() as f64) >= lo && (c.len() as f64) <= hi {
                in_range += 1;
            }
        }
        assert!(in_range >= trials - 2, "only {in_range}/{trials} in range");
    }

    #[test]
    fn committee_hits_non_faulty_node_lemma2() {
        // With f = n/2 random faults, P[all candidates faulty] ≤ 1/n².
        let params = Params::new(1024, 0.5).unwrap();
        let n = 1024usize;
        let mut all_faulty = 0;
        for t in 0..200u64 {
            let mut r = Stream::seeded(t);
            let faulty: std::collections::HashSet<usize> = r.sample(n, n / 2).into_iter().collect();
            let (c, _) = draw_committee(&mut r, &params);
            if !c.is_empty() && c.iter().all(|i| faulty.contains(i)) {
                all_faulty += 1;
            }
        }
        assert_eq!(all_faulty, 0);
    }

    #[test]
    fn candidate_pairs_share_referee_lemma3() {
        let params = Params::new(1024, 0.5).unwrap();
        for t in 0..20u64 {
            let (c, refs) = draw_committee(&mut Stream::seeded(t), &params);
            for i in 0..c.len() {
                for j in i + 1..c.len() {
                    let a: std::collections::HashSet<_> = refs[i].iter().collect();
                    let shared = refs[j].iter().any(|x| a.contains(x));
                    assert!(
                        shared,
                        "candidates {} and {} share no referee (trial {t})",
                        c[i], c[j]
                    );
                }
            }
        }
    }

    #[test]
    fn referee_ports_are_distinct() {
        let params = Params::new(256, 1.0).unwrap();
        let (c, refs) = draw_committee(&mut Stream::seeded(3), &params);
        assert!(!c.is_empty());
        for rs in &refs {
            assert_eq!(rs.len(), params.referee_count().min(255));
            let mut sorted = rs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), rs.len());
            assert!(sorted.iter().all(|&r| r < 256));
        }
    }

    #[test]
    fn draw_committee_never_maps_port_to_self() {
        let params = Params::new(128, 1.0).unwrap();
        for t in 0..50 {
            let (c, refs) = draw_committee(&mut Stream::seeded(t), &params);
            for (ci, rs) in c.iter().zip(&refs) {
                assert!(rs.iter().all(|r| r != ci), "candidate refereed itself");
                assert!(rs.iter().all(|&r| r < 128));
            }
        }
    }
}
