//! The one place an execution substrate is named, parsed and run.
//!
//! "Run this `(SimConfig, seed)` on substrate X" is a single value and a
//! single call: [`Substrate::run`] holds the only engine / channel / mesh
//! dispatch in the workspace. Everything above the runtimes — `ftc-hunt`,
//! `ftc-serve`, `ftc-lab`, the `ftc` CLI — goes through it,
//! so a hook that must see every run threads through one call site.

use ftc_net::channel;
use ftc_net::sync::{deal, run_over_links, NetMetrics, NetRunResult, RunOpts};
use ftc_sim::adversary::Adversary;
use ftc_sim::engine::{run_sharded, SimConfig};
use ftc_sim::ids::NodeId;
use ftc_sim::payload::Wire;
use ftc_sim::protocol::Protocol;

use crate::runtime::socket_links;

/// Worker / proc count a bare `channel` or `mesh` label parses to.
const DEFAULT_WIDTH: usize = 4;

/// Which substrate executes a run. The choice never changes the model
/// result — that is the bit-equivalence contract `tests/net_equivalence.rs`
/// pins — only what moves the messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// The in-process sim engine (`ftc_sim::engine::run`).
    Engine,
    /// The sim engine with intra-trial sharding: one trial's nodes are
    /// split across this many worker threads per round.
    EngineSharded(usize),
    /// The `ftc-net` in-process channel mesh with this many workers.
    Channel(usize),
    /// The multiplexed socket runtime with this many procs (clamped to
    /// `min(n, MAX_MESH_PROCS)`): one socket per proc pair, hence one per
    /// edge at one node per proc.
    Mesh(usize),
}

impl Substrate {
    /// Parses `engine | channel[:W] | mesh[:P]` (`W`, `P` ≥ 1, default 4).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (kind, width) = match s.split_once(':') {
            Some((kind, w)) => {
                let w: usize = w.parse().map_err(|e| format!("substrate {s}: {e}"))?;
                if w == 0 {
                    return Err(format!("substrate {s}: the width must be at least 1"));
                }
                (kind, Some(w))
            }
            None => (s, None),
        };
        match (kind, width) {
            ("engine", None) => Ok(Substrate::Engine),
            ("channel", w) => Ok(Substrate::Channel(w.unwrap_or(DEFAULT_WIDTH))),
            ("mesh", p) => Ok(Substrate::Mesh(p.unwrap_or(DEFAULT_WIDTH))),
            ("tcp", _) => Err(
                "the per-edge tcp runtime is retired: use `mesh` with one node per proc \
                 (`--substrate mesh:<n>` opens one socket per edge)"
                    .into(),
            ),
            _ => Err(format!(
                "unknown substrate {s} (engine | channel[:W] | mesh[:P])"
            )),
        }
    }

    /// The store-record label; [`Substrate::parse`] reads it back. Widths
    /// that are invisible in results stay out of it — sharding and the
    /// proc count never change a bit of the deterministic render — so
    /// record ids are invariant in `--intra-jobs` and the mesh width.
    pub fn label(self) -> String {
        match self {
            Substrate::Engine | Substrate::EngineSharded(_) => "engine".into(),
            Substrate::Channel(w) => format!("channel:{w}"),
            Substrate::Mesh(_) => "mesh".into(),
        }
    }

    /// Worker threads sharding a single engine trial's nodes (1 off the
    /// sharded engine).
    pub fn intra_jobs(self) -> usize {
        match self {
            Substrate::EngineSharded(j) => j.max(1),
            _ => 1,
        }
    }

    /// Runs one execution of `cfg` on this substrate.
    ///
    /// The model result is bit-identical across substrates; `net` is zero
    /// on the engine (it has no wire, so `opts` does not apply there —
    /// [`ftc_net::fault::WireFaultPlan::degrade`]'s empty-plan
    /// equivalence). A fabric that cannot be built or a wedged run (a
    /// receive timing out, an adjudication error) is an `Err` with the
    /// node/round/frame-count context; invalid configurations still panic,
    /// as in [`ftc_sim::engine::run`].
    pub fn run<P, F, A>(
        self,
        cfg: &SimConfig,
        factory: F,
        adversary: &mut A,
        opts: &RunOpts,
    ) -> Result<NetRunResult<P>, String>
    where
        P: Protocol,
        P::Msg: Wire,
        F: FnMut(NodeId) -> P,
        A: Adversary<P::Msg> + ?Sized,
    {
        match self {
            Substrate::Engine | Substrate::EngineSharded(_) => Ok(NetRunResult {
                run: run_sharded(cfg, factory, adversary, self.intra_jobs()),
                net: NetMetrics::default(),
            }),
            // Both network substrates are the one driver
            // (`run_over_links`) over their link, one per worker, node `u`
            // on worker `u mod workers`; `recv_timeout` is the link's.
            Substrate::Channel(workers) => {
                let endpoints = channel::mesh_with_timeout(cfg.n, opts.recv_timeout);
                let links = deal(endpoints, workers.clamp(1, cfg.n as usize));
                run_over_links(cfg, links, factory, adversary, opts)
            }
            Substrate::Mesh(procs) => {
                let links = socket_links(cfg, procs, opts.recv_timeout)
                    .map_err(|e| format!("mesh fabric: {e}"))?;
                run_over_links(cfg, links, factory, adversary, opts)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_label_table() {
        // (input, parsed, label) — labels round-trip through `parse`
        // except where a result-invisible width is dropped on purpose.
        let table = [
            ("engine", Substrate::Engine, "engine"),
            ("channel", Substrate::Channel(4), "channel:4"),
            ("channel:1", Substrate::Channel(1), "channel:1"),
            ("mesh", Substrate::Mesh(4), "mesh"),
            ("mesh:64", Substrate::Mesh(64), "mesh"),
        ];
        for (input, substrate, label) in table {
            assert_eq!(Substrate::parse(input), Ok(substrate), "{input}");
            assert_eq!(substrate.label(), label, "{input}");
            let back = Substrate::parse(label).unwrap();
            assert_eq!(back.label(), label, "{input}");
        }
        // Store labels that record ids hash must never grow a width.
        assert_eq!(Substrate::EngineSharded(8).label(), "engine");
        assert_eq!(Substrate::Mesh(1).label(), Substrate::Mesh(64).label());

        for bad in ["channel:0", "mesh:0", "mesh:x", "engine:2", "udp", ""] {
            assert!(Substrate::parse(bad).is_err(), "{bad:?} parsed");
        }
        for retired in ["tcp", "tcp:4"] {
            let err = Substrate::parse(retired).unwrap_err();
            assert!(
                err.contains("--substrate mesh:<n>"),
                "no replacement named in: {err}"
            );
        }
    }
}
