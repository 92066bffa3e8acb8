//! One judge for every run: the paper's success definitions, written once.
//!
//! Definition 1 (implicit leader election) asks that exactly one node end
//! `ELECTED`. Definition 2 (implicit agreement) asks that some node decide,
//! that all deciders agree, and that the value be some node's input. The
//! explicit extensions ask every surviving node to know the result. Each
//! protocol state says what it decided through [`Decides`];
//! [`RunResult::verdict`] condenses the survivors' decisions into a
//! [`Verdict`], and every rule is a one-liner over it (DESIGN D29).

use std::collections::BTreeSet;

use crate::engine::RunResult;

/// What a protocol state decided, for [`RunResult::verdict`].
pub trait Decides {
    /// The decided value: a bit, a leader rank, or `()` for "I am
    /// elected".
    type Value: Ord + Copy;

    /// This node's decision; `None` is ⊥, still undecided.
    fn decision(&self) -> Option<Self::Value>;

    /// This node's input, where validity applies; `None` elsewhere.
    fn input(&self) -> Option<Self::Value> {
        None
    }
}

/// The survivors' decisions, condensed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict<V> {
    /// Distinct decisions of surviving nodes, ascending.
    pub decisions: Vec<V>,
    /// Surviving nodes that decided.
    pub deciders: usize,
    /// Surviving nodes still at ⊥.
    pub undecided: usize,
    /// Whether the one decision is some node's input, crashed nodes
    /// included (`false` without exactly one decision).
    pub valid: bool,
}

impl<V: Copy> Verdict<V> {
    /// The one decision, when there is exactly one.
    pub fn value(&self) -> Option<V> {
        match self.decisions[..] {
            [v] => Some(v),
            _ => None,
        }
    }

    /// Definition 2 without validity: some survivor decided and all
    /// deciders agree. Protocols with inputs also ask [`Verdict::valid`].
    pub fn implicit(&self) -> bool {
        self.decisions.len() == 1
    }

    /// The explicit extensions: every survivor decided the same value.
    pub fn explicit(&self) -> bool {
        self.undecided == 0 && self.implicit()
    }
}

impl<P: Decides> RunResult<P> {
    /// Judges the run by its survivors' decisions.
    pub fn verdict(&self) -> Verdict<P::Value> {
        let mut decided = BTreeSet::new();
        let (mut deciders, mut undecided) = (0, 0);
        for (_, s) in self.surviving_states() {
            match s.decision() {
                Some(v) => {
                    deciders += 1;
                    decided.insert(v);
                }
                None => undecided += 1,
            }
        }
        let decisions: Vec<P::Value> = decided.into_iter().collect();
        let valid = match decisions[..] {
            [v] => self.states.iter().any(|s| s.input() == Some(v)),
            _ => false,
        };
        Verdict {
            decisions,
            deciders,
            undecided,
            valid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::FaultySet;
    use crate::metrics::Metrics;

    /// A node's decision, its input, and whether it survived.
    #[derive(Clone, Copy)]
    struct Node(Option<u8>, Option<u8>, bool);

    impl Decides for Node {
        type Value = u8;
        fn decision(&self) -> Option<u8> {
            self.0
        }
        fn input(&self) -> Option<u8> {
            self.1
        }
    }

    fn judge(nodes: &[Node]) -> Verdict<u8> {
        RunResult {
            metrics: Metrics::default(),
            states: nodes.to_vec(),
            crashed_at: nodes.iter().map(|s| (!s.2).then_some(1)).collect(),
            faulty: FaultySet::none(nodes.len() as u32),
            trace: None,
            congest_violations: 0,
        }
        .verdict()
    }

    #[test]
    fn verdicts_follow_the_definitions() {
        // Survivors deciding their own input, undecided survivors, and a
        // crashed node that decided 1.
        let x = |v| Node(Some(v), Some(v), true);
        let bot = Node(None, Some(1), true);
        let crashed = Node(Some(1), Some(1), false);
        // Definition 1: an elected node decides, the rest stay at ⊥.
        let elected = Node(Some(0), None, true);
        let idle = Node(None, None, true);
        // (case, nodes, decisions, deciders, undecided, valid, implicit, explicit)
        type Row<'a> = (
            &'a str,
            &'a [Node],
            &'a [u8],
            usize,
            usize,
            bool,
            bool,
            bool,
        );
        #[rustfmt::skip]
        let table: [Row<'_>; 9] = [
            ("zero survivors", &[crashed], &[], 0, 0, false, false, false),
            ("all undecided", &[bot, bot], &[], 0, 2, false, false, false),
            ("one value", &[x(1), x(1)], &[1], 2, 0, true, true, true),
            ("one value and ⊥", &[x(1), bot], &[1], 1, 1, true, true, false),
            ("two values", &[x(0), x(1)], &[0, 1], 2, 0, false, false, false),
            ("nobody's input", &[Node(Some(2), Some(0), true)], &[2], 1, 0, false, true, true),
            ("a crashed node's input", &[Node(Some(1), None, true), crashed], &[1], 1, 0, true, true, true),
            ("one elected", &[elected, idle], &[0], 1, 1, false, true, false),
            ("two elected", &[elected, elected], &[0], 2, 0, false, true, true),
        ];
        for (case, nodes, decisions, deciders, undecided, valid, implicit, explicit) in table {
            let v = judge(nodes);
            assert_eq!(v.decisions, decisions, "{case}");
            assert_eq!(
                (v.deciders, v.undecided, v.valid),
                (deciders, undecided, valid),
                "{case}"
            );
            assert_eq!((v.implicit(), v.explicit()), (implicit, explicit), "{case}");
            assert_eq!(v.value(), implicit.then(|| decisions[0]), "{case}");
        }
    }
}
