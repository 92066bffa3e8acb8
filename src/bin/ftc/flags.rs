//! The flag table. Every `ftc` option is one row of [`FLAGS`]: its name,
//! what its value is called, which subcommands read it, one line of help
//! and the setter that validates it. The parser, the "this subcommand
//! does not read that flag" check and every `--help` text are generated
//! from the rows, so a new option is one row and nothing else.

use std::fmt::{Display, Write};
use std::str::FromStr;
use std::time::Duration;

use ftc::prelude::*;

/// Parsed command-line options (flat key-value flags). What a field means
/// and which subcommands read it is its row in [`FLAGS`].
#[derive(Clone, Debug)]
pub struct Opts {
    pub n: u32,
    pub alpha: f64,
    pub seed: u64,
    pub trials: u64,
    pub zeros: f64,
    /// One of `none|eager|random|targeted`, checked at parse time; the
    /// command resolves it against its protocol with [`Adv::named`].
    pub adversary: String,
    pub caps: Vec<Option<u32>>,
    pub format: Format,
    /// `0` = every core.
    pub jobs: usize,
    pub proto: ProtoKind,
    /// Absent = the subcommand's default: [`Opts::wire_substrate`] for
    /// `cluster`, `replay` and `hunt --wire-faults`, the engine elsewhere.
    pub substrate: Option<Substrate>,
    pub recv_timeout: Duration,
    pub objective: Objective,
    pub strategy: Strategy,
    pub budget: u64,
    pub probes: u64,
    pub out: Option<String>,
    pub smoke: bool,
    pub store: String,
    /// Absent = the trajectory file's most recent entry.
    pub campaign: Option<String>,
    pub heights: u32,
    pub kill_every: u32,
    pub bystanders: u32,
    pub rejoin_after: u32,
    pub window: u32,
    pub arrivals: u32,
    pub capacity: u32,
    pub inject_split_brain: Option<u32>,
    pub wire_faults: bool,
    pub expect_hit: bool,
    pub expect_empty: bool,
    pub min_coverage: Option<f64>,
    pub kind: Option<String>,
    pub topology: Topology,
    /// Non-flag arguments (e.g. the artifact path for `replay`).
    pub positional: Vec<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            n: 1024,
            alpha: 0.5,
            seed: 42,
            trials: 10,
            zeros: 0.05,
            adversary: "random".into(),
            caps: vec![None, Some(64), Some(16), Some(4), Some(1)],
            format: Format::Human,
            jobs: 0,
            proto: ProtoKind::Le,
            substrate: None,
            recv_timeout: RECV_TIMEOUT,
            objective: Objective::Failure,
            strategy: Strategy::Random,
            budget: 256,
            probes: 3,
            out: None,
            smoke: false,
            store: "results/store".into(),
            campaign: None,
            heights: 20,
            kill_every: 3,
            bystanders: 2,
            rejoin_after: 4,
            window: 12,
            arrivals: 2,
            capacity: 4,
            inject_split_brain: None,
            wire_faults: false,
            expect_hit: false,
            expect_empty: false,
            min_coverage: None,
            kind: None,
            topology: Topology::Complete,
            positional: Vec::new(),
        }
    }
}

impl Opts {
    /// `--substrate`, defaulting to the socket mesh at its default width:
    /// what `cluster`, `replay` and `hunt --wire-faults` run on, their
    /// point being the wire.
    pub fn wire_substrate(&self) -> Substrate {
        self.substrate
            .unwrap_or_else(|| Substrate::parse("mesh").expect("the bare label parses"))
    }
}

/// `engine`, `channel` or `mesh`: the substrate without its width, as the
/// `transport`/`substrate` output columns have always named it.
pub fn substrate_kind(substrate: Substrate) -> &'static str {
    match substrate {
        Substrate::Engine => "engine",
        Substrate::Channel(_) => "channel",
        Substrate::Mesh(_) => "mesh",
    }
}

/// What `--substrate` would have to say to get `substrate` back.
pub fn substrate_spelled(substrate: Substrate) -> String {
    match substrate {
        Substrate::Mesh(procs) => format!("mesh:{procs}"),
        other => other.label(),
    }
}

/// Parses `--topology`: `complete`, `diam2:<clusters>` (the hub graph),
/// or `rr:<d>` (a seeded random `d`-regular graph). Shape parameters are
/// validated against `--n` when the command builds its `SimConfig`, not
/// here — parse time does not know the final `n`.
fn parse_topology(flag: &str, s: &str) -> Result<Topology, String> {
    if s == "complete" {
        return Ok(Topology::Complete);
    }
    if let Some(c) = s.strip_prefix("diam2:") {
        let clusters = c.parse().map_err(|e| format!("{flag} diam2: {e}"))?;
        return Ok(Topology::DiameterTwo { clusters });
    }
    if let Some(d) = s.strip_prefix("rr:") {
        let d = d.parse().map_err(|e| format!("{flag} rr: {e}"))?;
        return Ok(Topology::RandomRegular { d });
    }
    Err(format!(
        "unknown topology {s} (complete | diam2:<clusters> | rr:<d>)"
    ))
}

/// Parses a flag's value, naming the flag in the error.
fn num<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// [`num`] for a count that must be at least 1.
fn positive<T: FromStr + PartialOrd + From<u8>>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let x: T = num(flag, value)?;
    if x < T::from(1) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(x)
}

/// One command-line option.
pub struct Flag {
    pub name: &'static str,
    /// What usage text calls the value; `None` for a switch.
    metavar: Option<&'static str>,
    /// The subcommands that read the flag, space-separated.
    pub readers: &'static str,
    help: &'static str,
    /// Validates the value (empty for a switch) and stores it. Receives
    /// the row's own name so error messages need not repeat it.
    set: fn(&mut Opts, &str, &str) -> Result<(), String>,
}

impl Flag {
    fn read_by(&self, cmd: &str) -> bool {
        self.readers.split(' ').any(|r| r == cmd)
    }
}

/// Everything that sizes or seeds a run.
const RUNS: &str = "le agree sweep trace cluster serve loadgen hunt";
/// Everything that emits rows.
const ROWS: &str = "le agree sweep cluster serve loadgen hunt replay lab";
const SERVICE: &str = "serve loadgen";
const EXPECT_ONE: &str = "--expect-hit and --expect-empty are mutually exclusive";

pub const FLAGS: &[Flag] = &[
    Flag {
        name: "--n",
        metavar: Some("N"),
        readers: RUNS,
        help: "network size",
        set: |o, f, v| num(f, v).map(|x| o.n = x),
    },
    Flag {
        name: "--alpha",
        metavar: Some("A"),
        readers: RUNS,
        help: "guaranteed non-faulty fraction, in [log2(n)^2/n, 1]",
        set: |o, f, v| num(f, v).map(|x| o.alpha = x),
    },
    Flag {
        name: "--seed",
        metavar: Some("S"),
        readers: RUNS,
        help: "base seed; every subcommand is deterministic given it",
        set: |o, f, v| num(f, v).map(|x| o.seed = x),
    },
    Flag {
        name: "--trials",
        metavar: Some("T"),
        readers: "le agree sweep cluster",
        help: "independent trials, at least 1",
        set: |o, f, v| positive(f, v).map(|x| o.trials = x),
    },
    Flag {
        name: "--zeros",
        metavar: Some("Z"),
        readers: "agree cluster hunt",
        help: "agreement: fraction of nodes whose input is 0",
        set: |o, f, v| num(f, v).map(|x| o.zeros = x),
    },
    Flag {
        name: "--adversary",
        metavar: Some("NAME"),
        readers: "le agree cluster",
        help: "crash adversary: none|eager|random|targeted",
        set: |o, _, v| {
            // Which protocol the name is for only moves `random`'s horizon.
            Adv::named(v, ProtoKind::Le)?;
            o.adversary = v.into();
            Ok(())
        },
    },
    Flag {
        name: "--topology",
        metavar: Some("G"),
        readers: "le agree cluster",
        help: "network graph: complete|diam2:<clusters>|rr:<d>",
        set: |o, f, v| parse_topology(f, v).map(|x| o.topology = x),
    },
    Flag {
        name: "--caps",
        metavar: Some("LIST"),
        readers: "sweep",
        help: "per-node send caps to sweep, comma-separated (`none` = unlimited)",
        set: |o, f, v| {
            let cap = |c: &str| match c {
                "none" => Ok(None),
                c => num(f, c).map(Some),
            };
            o.caps = v.split(',').map(cap).collect::<Result<_, _>>()?;
            Ok(())
        },
    },
    Flag {
        name: "--format",
        metavar: Some("F"),
        readers: ROWS,
        help: "output format: human|csv|json",
        set: |o, _, v| Format::parse(v).map(|x| o.format = x),
    },
    Flag {
        name: "--csv",
        metavar: None,
        readers: ROWS,
        help: "alias for --format csv",
        set: |o, _, _| {
            o.format = Format::Csv;
            Ok(())
        },
    },
    Flag {
        name: "--jobs",
        metavar: Some("J"),
        readers: "le agree sweep hunt lab",
        help: "the run's thread budget (default: every core), spread across trials and, \
         when they are fewer, within each; never changes a result",
        set: |o, f, v| positive(f, v).map(|x| o.jobs = x),
    },
    Flag {
        name: "--proto",
        metavar: Some("P"),
        readers: "cluster hunt",
        help: "protocol: le|agree",
        set: |o, _, v| ProtoKind::parse(v).map(|x| o.proto = x),
    },
    Flag {
        name: "--substrate",
        metavar: Some("S"),
        readers: "cluster serve loadgen hunt replay lab",
        help: "where runs execute: engine|channel[:W]|mesh[:P] (W workers / P procs, default 4); \
         never changes a result",
        set: |o, _, v| Substrate::parse(v).map(|x| o.substrate = Some(x)),
    },
    Flag {
        name: "--recv-timeout",
        metavar: Some("SECS"),
        readers: "cluster",
        help: "how long a node waits on a frame before the run is declared wedged",
        set: |o, f, v| {
            let secs: f64 = num(f, v)?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(format!("{f} must be a positive number of seconds"));
            }
            o.recv_timeout = Duration::from_secs_f64(secs);
            Ok(())
        },
    },
    Flag {
        name: "--objective",
        metavar: Some("O"),
        readers: "hunt",
        help: "what to falsify: two-leaders|disagreement|failure|max-messages|max-rounds",
        set: |o, _, v| Objective::parse(v).map(|x| o.objective = x),
    },
    Flag {
        name: "--strategy",
        metavar: Some("S"),
        readers: "hunt",
        help: "how schedules are proposed: random|guided|anneal",
        set: |o, _, v| Strategy::parse(v).map(|x| o.strategy = x),
    },
    Flag {
        name: "--budget",
        metavar: Some("B"),
        readers: "hunt",
        help: "candidate schedules to evaluate, at least 1",
        set: |o, f, v| positive(f, v).map(|x| o.budget = x),
    },
    Flag {
        name: "--probes",
        metavar: Some("P"),
        readers: "hunt",
        help: "probe seeds per candidate, at least 1",
        set: |o, f, v| positive(f, v).map(|x| o.probes = x),
    },
    Flag {
        name: "--out",
        metavar: Some("PATH"),
        readers: "serve hunt lab",
        help: "hunt: artifact file; serve: violation-artifact dir; lab baseline: trajectory dir",
        set: |o, _, v| {
            o.out = Some(v.into());
            Ok(())
        },
    },
    Flag {
        name: "--smoke",
        metavar: None,
        readers: "lab",
        help: "run the named campaign at smoke scale",
        set: |o, _, _| {
            o.smoke = true;
            Ok(())
        },
    },
    Flag {
        name: "--store",
        metavar: Some("DIR"),
        readers: "lab",
        help: "results-store directory (default results/store)",
        set: |o, _, v| {
            o.store = v.into();
            Ok(())
        },
    },
    Flag {
        name: "--campaign",
        metavar: Some("NAME"),
        readers: "lab",
        help: "lab perf: gate against this campaign's latest trajectory entry",
        set: |o, _, v| {
            o.campaign = Some(v.into());
            Ok(())
        },
    },
    Flag {
        name: "--heights",
        metavar: Some("H"),
        readers: SERVICE,
        help: "election heights to run, at least 1",
        set: |o, f, v| positive(f, v).map(|x| o.heights = x),
    },
    Flag {
        name: "--kill-every",
        metavar: Some("K"),
        readers: SERVICE,
        help: "crash the leader after every K successful heights (0 = never)",
        set: |o, f, v| num(f, v).map(|x| o.kill_every = x),
    },
    Flag {
        name: "--bystanders",
        metavar: Some("B"),
        readers: SERVICE,
        help: "extra nodes crashed alongside the leader",
        set: |o, f, v| num(f, v).map(|x| o.bystanders = x),
    },
    Flag {
        name: "--rejoin-after",
        metavar: Some("R"),
        readers: SERVICE,
        help: "heights a downed node sits out before rejoining",
        set: |o, f, v| num(f, v).map(|x| o.rejoin_after = x),
    },
    Flag {
        name: "--window",
        metavar: Some("W"),
        readers: SERVICE,
        help: "serving rounds between elections, at least 1",
        set: |o, f, v| positive(f, v).map(|x| o.window = x),
    },
    Flag {
        name: "--arrivals",
        metavar: Some("A"),
        readers: SERVICE,
        help: "request arrivals per service round",
        set: |o, f, v| num(f, v).map(|x| o.arrivals = x),
    },
    Flag {
        name: "--capacity",
        metavar: Some("C"),
        readers: SERVICE,
        help: "requests the leader completes per serving round, at least 1",
        set: |o, f, v| positive(f, v).map(|x| o.capacity = x),
    },
    Flag {
        name: "--inject-split-brain",
        metavar: Some("H"),
        readers: SERVICE,
        help: "seed a verified two-leaders fault at height H (demonstrates the monitor)",
        set: |o, f, v| num(f, v).map(|x| o.inject_split_brain = Some(x)),
    },
    Flag {
        name: "--wire-faults",
        metavar: None,
        readers: "hunt",
        help: "also search socket-level faults (reorder, duplicate, tear, delay), \
               hunting on --substrate (default mesh)",
        set: |o, _, _| {
            o.wire_faults = true;
            Ok(())
        },
    },
    Flag {
        name: "--expect-hit",
        metavar: None,
        readers: "hunt lab",
        help: "exit nonzero unless a counterexample was found",
        set: |o, _, _| {
            if o.expect_empty {
                return Err(EXPECT_ONE.into());
            }
            o.expect_hit = true;
            Ok(())
        },
    },
    Flag {
        name: "--expect-empty",
        metavar: None,
        readers: "hunt lab",
        help: "exit nonzero if a counterexample was found",
        set: |o, _, _| {
            if o.expect_hit {
                return Err(EXPECT_ONE.into());
            }
            o.expect_empty = true;
            Ok(())
        },
    },
    Flag {
        name: "--min-coverage",
        metavar: Some("F"),
        readers: "lab",
        help: "lab run of a portfolio: minimum schedule-space coverage fraction, in [0, 1]",
        set: |o, f, v| {
            let c: f64 = num(f, v)?;
            if !(0.0..=1.0).contains(&c) {
                return Err(format!("{f} must be in [0, 1]"));
            }
            o.min_coverage = Some(c);
            Ok(())
        },
    },
    Flag {
        name: "--kind",
        metavar: Some("K"),
        readers: "lab",
        help: "lab list: only records of this kind, lab|hunt",
        set: |o, _, v| {
            if !matches!(v, "lab" | "hunt") {
                return Err(format!("unknown record kind {v} (lab|hunt)"));
            }
            o.kind = Some(v.into());
            Ok(())
        },
    },
];

/// Retired flags and what replaced them.
const RETIRED: [(&str, &str); 5] = [
    ("--transport", SUBSTRATE_WIDTH),
    ("--workers", SUBSTRATE_WIDTH),
    ("--procs", SUBSTRATE_WIDTH),
    (
        "--intra-jobs",
        "`--jobs` is the one thread budget, and a cell of fewer trials than \
         threads shards each trial over the rest",
    ),
    (
        "--tolerance",
        "`lab perf` times against a fixed 20 % band below the median ratio; \
         `lab diff` and `lab gate` compare exactly",
    ),
];
const SUBSTRATE_WIDTH: &str = "one flag names the substrate and its width, \
     `--substrate channel:<W>` / `--substrate mesh:<P>`";

/// Parses `cmd`'s arguments off the flag table. A flag `cmd` does not
/// read is an error naming the subcommands that do — never silently
/// ignored.
pub fn parse_opts(cmd: &str, args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            o.positional.push(arg.clone());
            continue;
        }
        if let Some((_, why)) = RETIRED.iter().find(|(name, _)| name == arg) {
            return Err(format!("{arg} is retired: {why}"));
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag {arg}"))?;
        if !flag.read_by(cmd) {
            return Err(format!(
                "{arg} does not apply to 'ftc {cmd}' ({})",
                flag.readers.replace(' ', ", ")
            ));
        }
        let value = match flag.metavar {
            Some(_) => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
            None => "",
        };
        (flag.set)(&mut o, flag.name, value)?;
    }
    Ok(o)
}

/// `ftc <cmd> --help`: the subcommand's usage line (`positional` its
/// non-flag arguments) and the flags it reads.
pub fn usage_for(cmd: &str, positional: &str) -> String {
    let mut s = format!("usage: ftc {cmd} {positional}[flags]\n");
    for f in FLAGS.iter().filter(|f| f.read_by(cmd)) {
        let left = match f.metavar {
            Some(metavar) => format!("{} {metavar}", f.name),
            None => f.name.to_string(),
        };
        writeln!(s, "  {left:<24} {}", f.help).expect("writing to a String");
    }
    s.push_str("  -h, --help               this text");
    s
}
