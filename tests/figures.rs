//! Table I and the twelve figures, as the repository commits them.
//!
//! A figure's text is `render(record)` of a campaign record (`ftc_lab::
//! figures`), and the full-scale records live in `results/store/` — so the
//! committed `results/*.txt` can be checked against the code without
//! running a simulation, and cannot drift from it unnoticed. The
//! end-to-end goldens were captured from the figure binaries of the commit
//! that still had them (`d6d4ff2`, `--smoke`), whose first line also named
//! the thread count; nothing else differs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ftc::lab::campaigns::CAMPAIGNS;
use ftc::lab::Store;

fn ftc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawning ftc")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftc-figures-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn committed_figures_are_renders_of_committed_records() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let store = Store::at(root.join("store"));
    let entries = store.list().unwrap();
    let mut figures = 0;
    for campaign in CAMPAIGNS {
        let Some(render) = campaign.render else {
            continue;
        };
        let name = campaign.name;
        let spec_hash = (campaign.spec)(false).hash();
        let entry = entries
            .iter()
            .find(|e| e.name == name && e.spec_hash == spec_hash)
            .unwrap_or_else(|| panic!("no full-scale {name} record (spec {spec_hash})"));
        let record = store.load(&entry.id).unwrap();
        assert_eq!(record.id(), entry.id, "{name}: record edited by hand");
        let file = root.join(format!("{}.txt", name.replace('-', "_")));
        let committed = std::fs::read_to_string(&file).unwrap();
        assert_eq!(render(&record).unwrap(), committed, "{}", file.display());
        figures += 1;
    }
    assert_eq!(figures, 13);
}

/// `ftc lab run <name> --smoke` prints the figure, then where it stored
/// the record.
fn smoke_figure(name: &str) -> String {
    let dir = tmp_dir(name);
    let out = ftc(&[
        "lab",
        "run",
        name,
        "--smoke",
        "--store",
        dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "lab run {name}: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (figure, stored) = stdout.trim_end().rsplit_once('\n').unwrap();
    assert!(stored.starts_with("  stored as "), "{stored}");
    // `lab show` of the stored record prints the same text.
    let id = stored.split(' ').nth(4).unwrap();
    let shown = ftc(&["lab", "show", id, "--store", dir.to_str().unwrap()]);
    assert_eq!(
        String::from_utf8(shown.stdout).unwrap(),
        format!("{figure}\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
    format!("{figure}\n")
}

#[test]
fn sampling_lemmas_smoke_matches_the_parent_binary() {
    assert_eq!(
        smoke_figure("fig-sampling-lemmas"),
        r#"E10: Lemmas 1-3 Monte-Carlo, n = 512, alpha = 0.5, 50 trials
(faulty set: (1-alpha)n uniformly random nodes per trial)

       configuration  mean |C|  Lemma 1 (band)  Lemma 2 (non-faulty)  Lemma 3 (pairs)
-------------------------------------------------------------------------------------
    paper (c=6, r=2)      74.6           1.000                 1.000            1.000
 D2: half candidates      37.7           1.000                 1.000            1.000
   D3: half referees      74.6           1.000                 1.000            0.040
D3: quarter referees      74.6           1.000                 1.000            0.000

shape checks: the paper row scores ~1.000 on all three lemmas; the
ablated rows degrade — most sharply Lemma 3 when the referee budget
drops (pairwise connectivity is the sqrt(n log n / a) term).
"#
    );
}

#[test]
fn multivalue_smoke_matches_the_parent_binary() {
    assert_eq!(
        smoke_figure("fig-multivalue"),
        r#"E14: multi-valued agreement, n = 512, alpha = 0.5, 2 trials
(inputs uniform in 0..k; (1-alpha)n random crashes)

    k  success    msgs     bits  bits/msg  rounds
-------------------------------------------------
    2      2/2  33,497   93,691       2.8       3
   16      2/2  42,734  156,521       3.7       4
  256      2/2  65,154  331,212       5.1       4
 4096      2/2  65,425  517,429       7.9       4
65536      2/2  65,553  726,319      11.1       4

shape checks: success stays ~1.0 for every k; bits/msg grows like
log2(k); messages grow mildly (improvement waves), far below any
linear-in-k blowup. k = 2 reproduces the binary protocol's costs.
"#
    );
}

#[test]
fn lowerbound_smoke_matches_the_parent_binary() {
    assert_eq!(
        smoke_figure("fig-lowerbound"),
        r#"E8: per-node send-cap sweep, n = 512, alpha = 0.5, threshold sqrt(n)/a^1.5 = 64 msgs, 2 trials
(inputs split 50/50 for agreement; (1-alpha)n eager crashes)

— agreement (Theorem 5.2) —
 cap/node  mean msgs  suppressed  x threshold  failure rate
-----------------------------------------------------------
unlimited     18,924           0       295.69          0.00
       64      5,659      10,392        88.41          0.00
       48      4,524      13,176        70.68          0.00
       32      2,903      12,897        45.36          0.00
       24      2,230      13,670        34.84          0.00
       16      1,317      12,547        20.58          0.00
        8        598      12,001         9.34          1.00
        4        367      13,802         5.73          1.00
        1         93      13,762         1.45          1.00
        0          0      11,520         0.00          1.00

— leader election (Theorem 4.2) —
 cap/node  mean msgs  suppressed  x threshold  failure rate
-----------------------------------------------------------
unlimited     64,991           0      1015.48          0.00
       64     10,831   1,072,553       169.23          1.00
       48      5,898     852,394        92.16          1.00
       32      3,862     972,924        60.34          1.00
       24      2,467     957,633        38.55          1.00
       16      1,498     795,632        23.41          1.00
        8        631     840,673         9.86          1.00
        4        285     726,300         4.45          1.00
        1         73     788,329         1.14          1.00
        0          0     906,640         0.00          1.00

shape checks: spend is monotone in the cap; failure rate ~0 while the
spend sits far above the threshold, and climbs to a constant as the
spend approaches/falls below it. (The paper's upper bound exceeds the
lower bound by polylog factors, so the knee sits somewhat above 1x.)
"#
    );
}

#[test]
fn a_record_missing_a_series_is_an_error_naming_it() {
    // A copy of the committed E8 record whose leader-election cells
    // carry another label: the renderer must say so, not index into
    // nothing.
    let store = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/store");
    let committed = std::fs::read_dir(store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with("fig-lowerbound-")
        })
        .expect("a committed fig-lowerbound record");
    let dir = tmp_dir("doctored");
    let text = std::fs::read_to_string(&committed).unwrap();
    assert!(text.contains(r#""label":"le""#));
    let doctored = text.replace(r#""label":"le""#, r#""label":"elections""#);
    std::fs::write(dir.join(committed.file_name().unwrap()), doctored).unwrap();
    let id = committed.file_stem().unwrap().to_str().unwrap();
    let out = ftc(&["lab", "show", id, "--store", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("`le`"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
