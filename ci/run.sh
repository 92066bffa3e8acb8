#!/usr/bin/env bash
# Every CI and nightly check, one function per suite:
#
#   ci/run.sh <suite>
#
#   per push: check smoke cluster hunt lab-gate perf soak scale
#   nightly:  nightly-gate nightly-campaigns nightly-hunt
#   by hand:  lines
#
# Each suite builds `ftc` once and drives the binary. Hard `timeout`s make
# a wedged run fail instead of stall. Scratch output goes to a temporary
# directory; what the workflows upload lands in soak-artifacts/ and nightly-*/.
set -euo pipefail
cd "$(dirname "$0")/.."
FTC=target/release/ftc
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Committed records `lab-gate` re-runs bit for bit at --jobs 2, seconds
# each. results/*.txt are renders of the figure records (tests/figures.rs),
# so a figure is honest exactly when its record still reproduces.
PUSH_GATES=(
  soak # the 120-height churny leader service at n=64, zero invariant violations
  topology-matrix # the protocols on the diameter-two hub graph and rr:8, with fitted exponents
  table1 fig-le-messages-vs-n fig-explicit fig-lowerbound fig-faultfree-gap
  fig-sampling-lemmas fig-adaptive fig-byzantine fig-edge-failures fig-multivalue
  adversary-portfolio # a portfolio hunt: its deterministic payload byte for byte
  agree-scaling # Theorem 5.1's fitted agreement exponents
)
# Committed records `nightly-gate` re-runs: gate-smoke, the cheap invariant
# before hours at full scale, and the figure records too slow to gate on
# every push (minutes each).
NIGHTLY_GATES=(gate-smoke fig-success fig-rounds fig-messages-vs-alpha)
# `perf` rows: trajectory file, campaign, flags. Each row gates the
# committed record its campaign's latest BENCH_*.json entry names, bit for
# bit as `lab-gate` does, then times the run against that entry: per-cell
# ratios normalised by their median, so a uniformly slower runner passes
# while a >20% hot-path regression on specific cells fails.
PERF_GATES=(
  "BENCH_engine.json engine-bench --jobs 2"
  # --jobs 2 pins the thread layout (the one-trial 10^6 cell shards over
  # both threads) whatever the runner's core count.
  "BENCH_engine.json scale-bench --jobs 2"
  # Bytes/sec over real sockets: LE + agreement on the mesh runtime (2
  # procs), whose every counter, wire_bytes included, must reproduce.
  "BENCH_engine.json wire-throughput --substrate mesh:2 --jobs 1"
  # The LE protocol step alone: a slower referee or candidate path shows
  # against the other sizes instead of hiding behind the campaigns above.
  "BENCH_leader_election.json le-scaling --jobs 2"
)

build() { cargo build --release --locked --bin ftc; }

# gate <timeout> <record> [flags]: a fresh run of a committed record on its
# own substrate, compared bit for bit. `timeout 0` sets no limit.
gate() {
  local secs=$1 name=$2
  shift 2
  timeout "$secs" "$FTC" lab gate results/store/"$name"-*.json "$@"
}

# jobs_pair <timeout> <campaign> <jobs a> <jobs b> [flags of run a]: the
# campaign's smoke profile at two --jobs values must store the same
# deterministic payload. Store files also carry diag wall-clock, so they
# are compared with `lab diff`, never a raw diff.
jobs_pair() {
  local secs=$1 name=$2 a=$3 b=$4
  shift 4
  timeout "$secs" "$FTC" lab run "$name" --smoke --jobs "$a" --store "$tmp/$name-j$a" "$@"
  timeout "$secs" "$FTC" lab run "$name" --smoke --jobs "$b" --store "$tmp/$name-j$b"
  "$FTC" lab diff "$tmp/$name-j$a/$name"-*.json "$tmp/$name-j$b/$name"-*.json
}

check() {
  cargo build --release --locked --workspace
  cargo test -q --locked --workspace
  # benchmark/ is its own nested workspace compiled against frozen public
  # names (run_over, run_over_channel, run_over_mesh, Endpoint, RoundCore,
  # ...): a break in one of them fails here, not first in the benchmark.
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  cargo test --offline --manifest-path benchmark/Cargo.toml
  # `--help` is generated from the flag table: it must exist, print to
  # stdout and exit 0 for the command list and every subcommand.
  "$FTC" --help > /dev/null
  for cmd in le agree sweep trace cluster serve loadgen hunt replay lab; do
    "$FTC" "$cmd" --help > /dev/null
  done
  cargo fmt --all --check
  cargo clippy --all-targets --locked -- -D warnings

  # Unsafe audit. `unsafe` has one address: the `poll(2)` call in the
  # vendored mio shim (DESIGN D21). The word appears in no other source
  # file (`-w` does not match the `unsafe_code` of a forbid line), in one
  # block there, and every other library root forbids it outright.
  local found lib
  found="$(grep -rlw unsafe --include='*.rs' crates src vendor tests examples)"
  test "$found" = vendor/mio/src/lib.rs || { echo "unsafe in: $found"; exit 1; }
  test "$(grep -c 'unsafe {' vendor/mio/src/lib.rs)" -eq 1
  for lib in crates/*/src/lib.rs src/lib.rs vendor/*/src/lib.rs; do
    test "$lib" = vendor/mio/src/lib.rs || grep -qx '#!\[forbid(unsafe_code)\]' "$lib" \
      || { echo "$lib does not forbid unsafe code"; exit 1; }
  done

  # Codec audit. Stored JSON is read through `ftc_sim::json::Codec`, whose
  # narrow integers are checked (DESIGN D23); a cast after `as_u64()`
  # would truncate an out-of-range value silently again.
  if grep -rn 'as_u64()? as' crates src; then exit 1; fi

  # Outcome audit. A run is judged once, by `ftc_sim::verdict` (DESIGN
  # D29). The only `*Outcome` types left are LE's rank-level view, a
  # serve height and a runner slot.
  found="$(grep -rnoE 'pub struct \w+Outcome\b' crates src | sed 's/.*pub struct //' | sort)"
  test "$found" = "$(printf '%s\n' HeightOutcome LeOutcome TrialOutcome)" \
    || { echo "outcome types: $found"; exit 1; }

  # Port audit. A message's port is resolved on its receiver, through the
  # receiver's own map, on every driver (DESIGN D30): no envelope carries
  # a receiver port and no sender-side pass computes one.
  found="$(grep -rnwE 'dst_port|UNRESOLVED|resolve_sends_into' crates src tests examples || true)"
  test -z "$found" || { echo "receiver ports resolved off the receiver: $found"; exit 1; }

  # Check audit. A run is checked where it is built (DESIGN D33): a lab
  # cell by its trial builder, a hunt by `HuntSpec::check`, a config by
  # `ControlCore::new`. No second pass over the lab's workloads comes back.
  found="$(grep -rnwE 'check_workload|run_trial|bridged_trial' crates src || true)"
  test -z "$found" || { echo "a lab cell checked apart from its build: $found"; exit 1; }

  # Draw audit. A protocol reads randomness only through the named draws
  # of `ftc_sim::protocol::Draw` (DESIGN D36): no protocol file names
  # `rand`, `SmallRng` or `.rng()` before its tests, and `Ctx` hands out no
  # generator. The adversaries are exempt: the frozen `Adversary` trait
  # passes them a `&mut SmallRng`.
  local file
  for file in $(find crates/core/src crates/baselines/src -name '*.rs' | sort); do
    case "$file" in */adversaries.rs | */byzantine.rs) continue ;; esac
    found="$(awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$file" \
      | grep -E '\brand\b|SmallRng|\.rng\(\)' || true)"
    test -z "$found" || { echo "randomness outside the named draws: $found"; exit 1; }
  done
  if grep -nE 'fn rng\b' crates/sim/src/protocol.rs; then
    echo "Ctx hands out its generator"
    exit 1
  fi
}

smoke() {
  build
  # Table I and every figure at smoke scale: a broken figure pipeline
  # fails on every push, not on the next paper rebuild.
  for name in table1 fig-le-messages-vs-n fig-messages-vs-alpha fig-rounds \
    fig-success fig-explicit fig-lowerbound fig-faultfree-gap fig-sampling-lemmas \
    fig-adaptive fig-byzantine fig-edge-failures fig-multivalue; do
    "$FTC" lab run "$name" --smoke --store "$tmp/figs"
  done
  # Every byte a figure prints, the record id on its last line included,
  # must be identical across --jobs.
  "$FTC" lab run fig-success --smoke --jobs 1 --store "$tmp/figs" > "$tmp/j1.txt"
  "$FTC" lab run fig-success --smoke --jobs 2 --store "$tmp/figs" > "$tmp/j2.txt"
  diff "$tmp/j1.txt" "$tmp/j2.txt"
  # Same contract for the CLI's own Monte-Carlo commands, which honour
  # --jobs and must not show it in a single row.
  for cmd in le agree; do
    "$FTC" "$cmd" --n 256 --trials 6 --jobs 1 --format json > "$tmp/$cmd-j1.txt"
    "$FTC" "$cmd" --n 256 --trials 6 --jobs 2 --format json > "$tmp/$cmd-j2.txt"
    diff "$tmp/$cmd-j1.txt" "$tmp/$cmd-j2.txt"
  done
  # A traced run and its influence-cloud analysis, end to end. These three
  # lines are what `ftc trace` printed before the trace became a
  # projection of the control plane's delivery decisions (DESIGN D32); a
  # moved `delivered` flag moves them.
  "$FTC" trace --n 1024 --seed 1 > "$tmp/trace.txt"
  diff <(printf '%s\n' \
    'trace: n=1024 alpha=0.5 seed=1 — 89684 events, 82 rounds' \
    'influence: 74 initiators, event N (disjoint clouds) = false, 478 untouched nodes' \
    'largest clouds: [123, 88, 62, 48, 38, 27, 25, 16]') "$tmp/trace.txt"
}

cluster() {
  build
  # `ftc cluster` exits non-zero unless every trial succeeds. All defaults
  # (n=1024, mesh, 4 procs) must simply work.
  timeout 180 "$FTC" cluster --trials 1
  # A run builds its graph once, not once per node: on a dense
  # random-regular graph a per-node rebuild takes minutes.
  timeout 60 "$FTC" cluster --n 1024 --alpha 0.5 --proto le --topology rr:256 \
    --adversary random --seed 1 --substrate channel:1 --trials 1
  # One socket per edge: the mesh at one node per proc.
  timeout 120 "$FTC" cluster --n 8 --alpha 0.5 --proto le --seed 1 --substrate mesh:8 --trials 2
  # The multiplexed layout at sizes one socket per edge could never reach:
  # n=256 under churn for both protocols...
  timeout 120 "$FTC" cluster --n 256 --alpha 0.5 --proto le --adversary random \
    --seed 1 --substrate mesh:4 --trials 2
  timeout 120 "$FTC" cluster --n 256 --alpha 0.5 --proto agree --adversary eager \
    --seed 1 --substrate mesh:4 --trials 2
  # ...with every counter invariant in the process count (full JSON rows,
  # 1 proc vs 4 procs)...
  for procs in 1 4; do
    "$FTC" cluster --n 256 --alpha 0.5 --proto le --adversary random \
      --substrate mesh:$procs --trials 2 --format json > "$tmp/p$procs.txt"
  done
  diff "$tmp/p1.txt" "$tmp/p4.txt"
  # ...and a full n=1024 cluster election over real sockets.
  timeout 180 "$FTC" cluster --n 1024 --alpha 0.5 --proto le --adversary random \
    --seed 1 --substrate mesh:4 --trials 1
  # Sparse topologies over real sockets: the mesh fabric opens sockets only
  # for proc pairs a model edge crosses (at one node per proc, one
  # connection per hub-graph edge), and the gated fabric cannot change a
  # counter: the hub-graph election is diffed against the socketless
  # procs=1 run, agreement on the random 8-regular graph across proc counts.
  timeout 120 "$FTC" cluster --n 16 --alpha 0.75 --proto le --topology diam2:4 \
    --seed 1 --substrate mesh:16 --trials 2
  for procs in 16 1; do
    "$FTC" cluster --n 16 --alpha 0.75 --proto le --topology diam2:4 \
      --seed 1 --substrate mesh:$procs --trials 2 --format json > "$tmp/hub-p$procs.txt"
  done
  diff "$tmp/hub-p16.txt" "$tmp/hub-p1.txt"
  timeout 120 "$FTC" cluster --n 256 --alpha 0.5 --proto le --topology diam2:8 \
    --seed 1 --substrate mesh:4 --trials 2
  for procs in 1 4; do
    "$FTC" cluster --n 256 --alpha 0.5 --proto agree --topology rr:8 \
      --adversary random --substrate mesh:$procs --trials 2 --format json > "$tmp/tp$procs.txt"
  done
  diff "$tmp/tp1.txt" "$tmp/tp4.txt"
  # Worker-thread multiplexing must not change a single counter: full JSON
  # rows across worker counts, on the complete graph and on the random
  # 8-regular one, where most worker pairs carry few frames a round.
  for workers in 1 4; do
    "$FTC" cluster --n 64 --alpha 0.75 --proto le --adversary random \
      --substrate channel:$workers --trials 3 --format json > "$tmp/w$workers.txt"
    "$FTC" cluster --n 256 --alpha 0.5 --proto agree --topology rr:8 \
      --adversary random --substrate channel:$workers --trials 2 --format json > "$tmp/tw$workers.txt"
  done
  diff "$tmp/w1.txt" "$tmp/w4.txt"
  diff "$tmp/tw1.txt" "$tmp/tw4.txt"
  # Both links through the one round driver, at the CLI: the channel
  # transport on 4 workers and the socket mesh on 4 procs must agree on
  # every column but the transport's name. The engine prints the same rows
  # with no wire, so it must agree with both links on every model column
  # (the wire_bytes/frames columns and the wire_bytes summary row are what
  # only a wire has). Both adversaries crash nodes mid-broadcast, so each
  # worker's numbering of its nodes' filter-surviving frames is on the line.
  model_rows() {
    grep -v '"metric":"wire_bytes"' "$1" | sed 's/,"wire_bytes":[0-9]*,"frames":[0-9]*//'
  }
  local run proto substrate
  for run in le:random agree:targeted; do
    proto=${run%%:*}
    for substrate in engine channel:4 mesh:4; do
      "$FTC" cluster --n 64 --alpha 0.75 --proto "$proto" --adversary "${run#*:}" \
        --substrate $substrate --trials 3 --format json \
        | sed 's/"transport":"[a-z]*"//' > "$tmp/link-$proto-${substrate%%:*}.txt"
    done
    diff "$tmp/link-$proto-channel.txt" "$tmp/link-$proto-mesh.txt"
    diff <(model_rows "$tmp/link-$proto-engine.txt") <(model_rows "$tmp/link-$proto-mesh.txt")
  done
}

hunt() {
  build
  # Budgeted deterministic adversary hunt: per-generation JSON rows and the
  # emitted artifact must be bit-identical across --jobs, and the artifact
  # must replay.
  for jobs in 1 2; do
    timeout 150 "$FTC" hunt --n 16 --alpha 0.5 --proto le --objective failure \
      --strategy guided --budget 64 --probes 2 --seed 7 --jobs $jobs --format json \
      --out "$tmp/hunt-j$jobs.json" > "$tmp/hunt-rows-j$jobs.txt"
  done
  diff "$tmp/hunt-rows-j1.txt" "$tmp/hunt-rows-j2.txt"
  diff "$tmp/hunt-j1.json" "$tmp/hunt-j2.json"
  timeout 60 "$FTC" replay "$tmp/hunt-j1.json" --substrate channel:2
  # The committed, shrunk counterexample keeps replaying to its recorded
  # fingerprint, identically at any worker count.
  for workers in 1 4; do
    timeout 60 "$FTC" replay results/le-failure.counterexample.json \
      --substrate channel:$workers --format json > "$tmp/replay-w$workers.txt"
  done
  diff "$tmp/replay-w1.txt" "$tmp/replay-w4.txt"
  # The committed wire-fault counterexample was hunted on the mesh socket
  # runtime; `replay` re-applies the faults at the socket layer there and
  # ignores them on the engine (delivery-preserving wire faults cannot move
  # the fingerprint): both must match bit for bit.
  timeout 120 "$FTC" replay results/wire-le-max-messages.counterexample.json --substrate mesh:2
  # Portfolio smoke: the full strategies x objectives x protocol grid at
  # smoke scale must mint the same content-addressed record at any --jobs
  # and clear the schedule-space coverage floor (`lab-gate` gates the
  # committed record).
  jobs_pair 300 adversary-portfolio 1 4 --min-coverage 0.25
}

lab-gate() {
  build
  # gate-smoke: any drift in protocol behaviour, seed derivation or
  # metrics accounting fails here.
  gate 240 gate-smoke
  # Campaign-level determinism: `lab run` diffed across --jobs.
  jobs_pair 120 le-scaling 1 4
  # The topology-matrix smoke profile keeps its payload at any --jobs.
  jobs_pair 120 topology-matrix 1 4
  local name record
  for name in "${PUSH_GATES[@]}"; do
    gate 300 "$name" --jobs 2
  done
  # No committed record goes ungated: each is named by one of the lists
  # above, so a new record fails here until a suite re-runs it.
  local listed=" ${PUSH_GATES[*]} ${NIGHTLY_GATES[*]} ${PERF_GATES[*]} "
  for record in results/store/*.json; do
    name="$(basename "$record" .json)"
    [[ $listed == *" ${name%-*} "* ]] || { echo "no suite gates $record"; exit 1; }
  done
}

perf() {
  build
  local row bench name flags
  for row in "${PERF_GATES[@]}"; do
    read -r bench name flags <<< "$row"
    # $flags is unquoted: it is several words.
    timeout 420 "$FTC" lab perf "$bench" --campaign "$name" $flags
  done
}

soak() {
  build
  # A bounded leader-service soak: 30 heights at n=16 with leader-kill
  # churn and rejoin, the invariant monitor armed the whole time (`ftc
  # serve` exits non-zero on any violation).
  timeout 300 "$FTC" serve --n 16 --alpha 0.5 --heights 30 --kill-every 3 \
    --bystanders 2 --rejoin-after 4 --seed 11
  # The engine and the channel mesh must report identical per-height
  # outcomes (wire bytes are physical truth only the mesh has, so they are
  # stripped before the diff).
  timeout 300 "$FTC" serve --n 16 --alpha 0.5 --heights 12 --seed 5 --format json \
    | sed 's/"wire_bytes":[0-9]*//' > "$tmp/serve-engine.txt"
  timeout 300 "$FTC" serve --n 16 --alpha 0.5 --heights 12 --seed 5 --format json \
    --substrate channel:3 | sed 's/"wire_bytes":[0-9]*//' > "$tmp/serve-channel.txt"
  diff "$tmp/serve-engine.txt" "$tmp/serve-channel.txt"
  # The smoke soak campaign stores the same payload at any --jobs.
  jobs_pair 300 soak 1 4
  # A real n=1024 service on the mesh: 10 heights with leader-kill churn
  # over multiplexed sockets, the invariant monitor armed the whole time.
  timeout 300 "$FTC" serve --n 1024 --alpha 0.5 --heights 10 --kill-every 3 \
    --bystanders 2 --rejoin-after 4 --seed 7 --substrate mesh:4
  # Monitor teeth: the seeder constructs a crash schedule that elects two
  # leaders at height 0; `ftc serve` must observe it, mint a replayable
  # artifact, and exit zero ONLY because the fault was deliberately
  # injected; the artifact must then reproduce bit for bit on the engine
  # and the channel mesh.
  rm -rf soak-artifacts && mkdir soak-artifacts
  timeout 420 "$FTC" serve --n 256 --alpha 0.5 --heights 2 --kill-every 0 \
    --inject-split-brain 0 --seed 1 --out soak-artifacts
  test -s soak-artifacts/two-leaders-h0000.json
  timeout 120 "$FTC" replay soak-artifacts/two-leaders-h0000.json --substrate channel:2
}

scale() {
  build
  # The trimmed scale-bench campaign: one calibration cell plus a full
  # n=10^6 leader-election trial on the sparse data plane (a dense round
  # at that size would be 10^12 edge probes). At --jobs 2 the one-trial
  # 10^6 cell shards over both threads (DESIGN D28), so this is the diff
  # that crosses the sharded engine path bit for bit.
  jobs_pair 600 scale-bench 2 1
}

nightly-gate() {
  build
  rm -rf nightly-out && mkdir nightly-out
  local name
  for name in "${NIGHTLY_GATES[@]}"; do
    gate 0 "$name" | tee -a nightly-out/gate-diff.txt
  done
}

nightly-campaigns() {
  build
  mkdir -p nightly-out
  # Each `lab run` exits non-zero if any of its fitted-exponent checks
  # leaves the claimed band: that is the nightly's teeth. Records land in
  # nightly-store for the failure artifact.
  local campaign
  for campaign in le-scaling agree-scaling engine-bench scale-bench soak; do
    "$FTC" lab run "$campaign" --store nightly-store | tee "nightly-out/$campaign.txt"
  done
}

nightly-hunt() {
  build
  # The committed portfolio at full budget: every strategy x objective x
  # protocol cell, wire faults included. Cost-objective hits are standing
  # findings, so the teeth are the coverage floor plus the uploaded record,
  # where a safety hit shows up as a shrunk, replayable artifact.
  mkdir -p nightly-hunt
  timeout 4800 "$FTC" lab run adversary-portfolio --jobs 2 --store nightly-hunt \
    --min-coverage 0.25 | tee nightly-hunt/portfolio.log
}

lines() {
  # ROADMAP's size figures. `tree` is every line of crates/ and src/;
  # `non-test` skips crates/*/tests/ and every file declared `#[cfg(test)]
  # mod x;` (as x.rs beside its parent), and in the rest drops each
  # `#[cfg(test)]` item: a `{` block up to its closing brace, otherwise the
  # one attributed line. $files and $prod are unquoted: one word per file.
  local files test_mods prod
  files="$(find crates src -name '*.rs' | sort)"
  test_mods="$(grep -A1 '^[ \t]*#\[cfg(test)\]' $files \
    | sed -nE 's|^(.*)/[^/]*\.rs-[ \t]*(pub )?mod ([a-z0-9_]+);.*|\1/\3.rs|p')"
  prod="$(echo "$files" | grep -v '^crates/[^/]*/tests/' | grep -vxF "${test_mods:-/}")"
  echo "non-test $(awk '
    FNR == 1 { depth = 0; attr = 0 }
    depth > 0 { depth += gsub(/\{/, "{") - gsub(/\}/, "}"); next }
    attr { attr = 0; depth = gsub(/\{/, "{") - gsub(/\}/, "}"); next }
    /^[ \t]*#\[cfg\(test\)\]/ { attr = 1; next }
    { n++ }
    END { print n }' $prod)"
  echo "tree $(cat $files | wc -l)"
}

case "${1-}" in
  check | smoke | cluster | hunt | lab-gate | perf | soak | scale) "$1" ;;
  nightly-gate | nightly-campaigns | nightly-hunt) "$1" ;;
  lines) "$1" ;;
  *) echo "usage: ci/run.sh <suite>, a suite named at the top of ci/run.sh" >&2 && exit 2 ;;
esac
