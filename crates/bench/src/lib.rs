//! # `ftc-bench` — the experiment harness
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §4 and
//! `EXPERIMENTS.md`):
//!
//! | Binary | Experiment | Paper artifact |
//! |--------|-----------|----------------|
//! | `table1` | E1 | Table I (protocol comparison) |
//! | `fig_le_messages_vs_n` | E2 | Theorem 4.1 message scaling in `n` |
//! | `fig_messages_vs_alpha` | E3 | `α`-dependence of both protocols |
//! | `fig_rounds` | E4 | `O(log n/α)` round complexity |
//! | `fig_success` | E5/E6 | whp success + leader quality under all adversaries |
//! | `fig_explicit` | E7 | explicit extensions `O(n·log n/α)` |
//! | `fig_lowerbound` | E8 | Theorems 4.2/5.2 budget sweep |
//! | `fig_faultfree_gap` | E9 | "same as fault-free" (Corollaries 1/3) |
//! | `fig_sampling_lemmas` | E10 | Lemmas 1–3 concentration |
//!
//! Every binary declares its parameter grid as an `ftc_lab`
//! [`CampaignSpec`](ftc_lab::CampaignSpec) and executes it through
//! [`run_campaign`](ftc_lab::run_campaign) — the same campaigns `ftc lab
//! run` can persist, diff, and gate on. This crate keeps only the shared
//! presentation plumbing (CLI options, table rendering).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trials per cell in `--smoke` mode (unless `--trials` overrides it).
pub const SMOKE_TRIALS: u64 = 2;

/// Command-line options shared by every experiment binary.
///
/// All binaries accept the same flags so CI and humans can dial any
/// experiment up or down without editing constants:
///
/// * `--jobs N` — worker threads (`0` = one per core, the default). The
///   results are bit-identical at any value; only wall-clock changes.
/// * `--trials N` — trials per experimental cell, overriding the binary's
///   default (and `--smoke`'s reduction).
/// * `--seed N` — base seed, overriding the binary's default.
/// * `--smoke` — CI profile: small `n`, [`SMOKE_TRIALS`] trials per cell.
///   Each binary picks its own smoke-sized parameters via
///   [`ExpOpts::pick`]; the seed stays fixed so smoke runs are
///   reproducible.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpOpts {
    /// Worker threads per measurement (`0` = one per core).
    pub jobs: usize,
    /// `--trials` override, if given.
    pub trials_override: Option<u64>,
    /// `--seed` override, if given.
    pub seed_override: Option<u64>,
    /// Whether `--smoke` was given.
    pub smoke: bool,
}

impl ExpOpts {
    /// Parses `std::env::args()`, printing usage and exiting on `--help`
    /// or a malformed command line.
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(ParseError::Help) => {
                println!("{}", Self::usage());
                std::process::exit(0);
            }
            Err(ParseError::Bad(msg)) => {
                eprintln!("error: {msg}\n\n{}", Self::usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable core of [`parse`]).
    ///
    /// [`parse`]: ExpOpts::parse
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, ParseError> {
        let mut opts = ExpOpts::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut value = |name: &str| {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| ParseError::Bad(format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--jobs" | "-j" => {
                    opts.jobs = value("--jobs")?
                        .parse()
                        .map_err(|_| ParseError::Bad("--jobs expects an integer".into()))?;
                }
                "--trials" | "-t" => {
                    let t: u64 = value("--trials")?
                        .parse()
                        .map_err(|_| ParseError::Bad("--trials expects an integer".into()))?;
                    if t == 0 {
                        return Err(ParseError::Bad("--trials must be at least 1".into()));
                    }
                    opts.trials_override = Some(t);
                }
                "--seed" | "-s" => {
                    let s: u64 = value("--seed")?
                        .parse()
                        .map_err(|_| ParseError::Bad("--seed expects an integer".into()))?;
                    opts.seed_override = Some(s);
                }
                "--smoke" => opts.smoke = true,
                "--help" | "-h" => return Err(ParseError::Help),
                other => {
                    return Err(ParseError::Bad(format!("unknown argument `{other}`")));
                }
            }
        }
        Ok(opts)
    }

    /// The usage text shared by all binaries.
    pub fn usage() -> &'static str {
        "usage: <experiment> [--jobs N] [--trials N] [--seed N] [--smoke]\n\
         \n\
           --jobs N, -j N    worker threads (0 = one per core; default 0).\n\
                             Results are identical at any value.\n\
           --trials N, -t N  trials per experimental cell (overrides the\n\
                            binary's default and --smoke)\n\
           --seed N, -s N    base seed (overrides the binary's default)\n\
           --smoke           CI profile: small n, few trials, fixed seed\n\
           --help, -h        this text"
    }

    /// Trials per cell: `--trials` wins, then `--smoke`, then `default`.
    pub fn trials(&self, default: u64) -> u64 {
        self.trials_override.unwrap_or(if self.smoke {
            SMOKE_TRIALS.min(default)
        } else {
            default
        })
    }

    /// Base seed: `--seed` wins over `default`.
    pub fn seed(&self, default: u64) -> u64 {
        self.seed_override.unwrap_or(default)
    }

    /// Picks the full-size or smoke-size variant of a parameter.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// One-line run description for experiment banners.
    pub fn banner(&self) -> String {
        let jobs = match self.jobs {
            0 => "all cores".to_string(),
            j => format!("{j} jobs"),
        };
        if self.smoke {
            format!("{jobs}, smoke profile")
        } else {
            jobs
        }
    }
}

/// Why [`ExpOpts::try_parse`] declined to produce options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// `--help` was requested.
    Help,
    /// The command line was malformed.
    Bad(String),
}

/// Prints a fixed-width table: a header row and data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        s
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", line(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Formats a float with thousands grouping for table cells.
pub fn fmt_count(v: f64) -> String {
    let v = v.round() as i64;
    let s = v.abs().to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    if v < 0 {
        format!("-{out}")
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_opts_parse_all_flags() {
        fn args(s: &str) -> std::vec::IntoIter<String> {
            s.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        }
        let o = ExpOpts::try_parse(args("--jobs 4 --trials 9 --seed 3 --smoke")).unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.trials(100), 9, "--trials beats --smoke");
        assert_eq!(o.seed(1), 3);
        assert!(o.smoke);

        let o = ExpOpts::try_parse(args("-j=2")).unwrap();
        assert_eq!(o.jobs, 2);

        let o = ExpOpts::try_parse(args("--smoke")).unwrap();
        assert_eq!(o.trials(100), SMOKE_TRIALS);
        assert_eq!(o.trials(1), 1, "smoke never raises the trial count");
        assert_eq!(o.pick(4096u32, 512), 512);

        let o = ExpOpts::try_parse(args("")).unwrap();
        assert_eq!(o, ExpOpts::default());
        assert_eq!(o.trials(8), 8);
        assert_eq!(o.seed(5), 5);
        assert_eq!(o.pick(4096u32, 512), 4096);

        assert_eq!(ExpOpts::try_parse(args("--help")), Err(ParseError::Help));
        assert!(matches!(
            ExpOpts::try_parse(args("--frobnicate")),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            ExpOpts::try_parse(args("--trials 0")),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            ExpOpts::try_parse(args("--jobs")),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            ExpOpts::try_parse(args("--trials zero")),
            Err(ParseError::Bad(_))
        ));
    }

    #[test]
    fn fmt_count_groups_thousands() {
        assert_eq!(fmt_count(1234567.0), "1,234,567");
        assert_eq!(fmt_count(999.0), "999");
        assert_eq!(fmt_count(0.0), "0");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn lab_campaign_replaces_measurement_plumbing() {
        // The old measure_le helper lived here; its semantics are pinned
        // by ftc-lab (see lab's le_cell_matches_bench_measurement_semantics
        // test). This guards that a bench binary's minimal campaign still
        // runs through the lab entry point.
        use ftc_lab::{run_campaign, Adv, CampaignSpec, CellSpec, Substrate, Workload};
        let spec = CampaignSpec::new("bench-unit").cell(CellSpec::new(
            Workload::Le {
                adv: Adv::Random(10),
            },
            128,
            0.5,
            42,
            2,
        ));
        let record = run_campaign(&spec, 1, Substrate::Engine).unwrap();
        assert_eq!(record.cells.len(), 1);
        assert!(record.cells[0].msgs.mean > 0.0);
    }
}
