#!/usr/bin/env bash
# CI pipeline, plain cargo. Every third-party dependency resolves to a
# source shim in third_party/ (the root Cargo.toml's [patch.crates-io])
# and Cargo.lock holds path sources only, so every job runs offline.
# Builds pass --locked: a manifest edit without a lock update fails here
# instead of reaching for a registry.
#
# Every job runs whatever the earlier ones did. The script prints the
# failed jobs at the end and exits non-zero if there are any.
#
# Jobs:
#   build        release build of every workspace target;
#   fmt          rustfmt over the workspace, in check mode: a file that
#                `cargo fmt --all` would change fails the job;
#   test         every crate's unit, integration and doc tests;
#   dclperf      the dclperf benchmark package's build and unit tests,
#                so a library API change fails before the benchmark does;
#   determinism  the determinism suites again, pinned to 2 worker threads,
#                to prove results do not depend on the thread count;
#   example      the README's identify_trace example on its bundled
#                demonstration trace must print a verdict;
#   obs          an instrumented table2 run at 1 and at 2 worker threads:
#                the JSONL artifact must parse back through the event schema
#                (obs_check), and the two must match byte for byte once
#                `wall_ns` is zeroed, pinning the global-sink route; the
#                2-thread run's metrics snapshot must validate and hold
#                the per-link queue histograms;
#   robustness   a seeded fault-injection sweep whose artifact must carry
#                fault-injection events;
#   streaming    a migrating-DCL replay whose artifact must carry
#                verdict-transition events and no warm start that could
#                not evaluate its first step;
#   fleet        a many-path grid through the per-path fleet pipeline whose
#                event and metrics artifacts must validate, and whose
#                stdout must be the same at 1 and at 2 worker threads;
#   trace        streaming and fleet `--obs` runs whose Chrome traces,
#                rendered from the obs artifact by `explain --chrome`, and
#                metrics snapshot must validate; the streaming obs
#                artifact must render through the explain bin, and the
#                fleet trace rendered at 1 and at 2 worker threads must
#                match byte for byte once `wall_ns` is zeroed;
#   perf         the `perf --quick` ladder into a temp report (the committed
#                BENCH_perf.json is a full run); the report and a
#                `--metrics` snapshot must validate;
#   resilience   the recovery bin's in-process fleet kill/restore across
#                unusable windows and a contained panic, each of its
#                verdict-transition events naming its path, then a
#                two-process streaming kill/restore;
#   clippy       the whole workspace, all targets, warnings denied; no
#                read of forward–backward rows (`alpha_row`, `beta_row`,
#                `beta_on_support`) in the models or dcl-core; and no call
#                of the setting constructors in the paper bins or the
#                golden test, which read the scenario catalogue; and no
#                `gen_range` under crates/bench/src, whose segment draws
#                belong to dcl_core::sweep; and no comparator helper
#                (`assert_bits_eq`, `assert_*identical*`,
#                `assert_*bitwise*`) or `dominant_trace` in a tests/*.rs
#                file, which assert with `assert_eq!` over tests/common;
#                and no `em_tol`/`em_max_iters` in Rust code outside
#                crates/core/src/identify.rs, whose
#                `IdentifyConfig::em_options` is the one translation of a
#                configuration into EM options;
#   doc          rustdoc over the workspace, warnings denied, so a renamed
#                or moved item cannot leave a broken doc link behind.
#
# The smoke runs use the dev profile (`opt-level = 2`, debug assertions
# on), so the bins' internal assertions are checked too.

set -uo pipefail
cd "$(dirname "$0")"

TMP=$(mktemp -d -t dcl-ci.XXXXXX)
trap 'rm -rf "$TMP"' EXIT
FAILED=()

# run <job>: run the function job_<job> with errexit in a subshell, and
# record the job as failed if any of its commands fails.
run() {
  echo "== $1"
  (set -e; "job_$1")
  local status=$?
  [ "$status" -eq 0 ] || FAILED+=("$1")
}

bin() { # bin <name> <args...>: a dcl-bench bin, built on first use
  local name="$1"; shift
  cargo run -q --locked -p dcl-bench --bin "$name" -- "$@"
}

job_build() {
  cargo build --release --locked
}

job_fmt() {
  cargo fmt --all -- --check
}

job_test() {
  # Without --no-fail-fast cargo stops at the first failing test target.
  cargo test -q --locked --no-fail-fast
}

job_dclperf() {
  # dclperf is its own package (shim deps through its own
  # [patch.crates-io]); its outputs and cargo's home stay in $TMP. Its
  # committed Cargo.lock is stale and cargo rewrites it, so the committed
  # file goes back when this job's subshell exits, pass or fail.
  cp dclperf/Cargo.lock "$TMP/dclperf.lock"
  trap 'cp "$TMP/dclperf.lock" dclperf/Cargo.lock' EXIT
  CARGO_TARGET_DIR="$TMP/dclperf" CARGO_HOME="$TMP/dclperf/cargo-home" \
    cargo test --release --offline -q --manifest-path dclperf/Cargo.toml
}

job_determinism() {
  export DCL_PARALLELISM=2 RAYON_NUM_THREADS=2
  cargo test -q --locked --test parallel_determinism --test golden_regression
  cargo test -q --locked -p dcl-hmm --test proptests
  cargo test -q --locked -p dcl-mmhd --test proptests
}

job_example() {
  cargo run -q --locked --example identify_trace > "$TMP/identify_trace.out"
  grep '^verdict:' "$TMP/identify_trace.out"
}

job_obs() {
  # 40 s of measured time is the shortest run that reliably produces
  # losses on the strongly-dominant scenario; the artifact must cover at
  # least four event kinds. The test suites observe through captures;
  # this is the one check of the installed-sink route (worker records
  # replayed in item order into the global sink) across thread counts.
  DCL_PARALLELISM=1 bin table2 40 --obs "$TMP/obs-1.jsonl"
  DCL_PARALLELISM=2 bin table2 40 --obs "$TMP/obs.jsonl" --metrics "$TMP/obs-metrics.json"
  bin obs_check "$TMP/obs.jsonl" 4
  # Per-link queue facts live in the registry: the snapshot must carry
  # a `netsim.link.*` histogram (an object, where a counter is a number).
  bin obs_check --metrics "$TMP/obs-metrics.json"
  grep -Eq '"netsim\.link\.[^"]+": \{' "$TMP/obs-metrics.json"
  for f in obs-1 obs; do
    sed 's/"wall_ns":[0-9]*/"wall_ns":0/g' "$TMP/$f.jsonl" > "$TMP/$f.canon.jsonl"
  done
  cmp "$TMP/obs-1.canon.jsonl" "$TMP/obs.canon.jsonl"
}

job_robustness() {
  bin robustness --quick --obs "$TMP/fault.jsonl"
  bin obs_check "$TMP/fault.jsonl" 1
}

job_streaming() {
  bin streaming --quick --obs "$TMP/stream.jsonl"
  bin obs_check "$TMP/stream.jsonl" 3
  # No warm trajectory may start from a seed the window has likelihood 0
  # under: fit_warm floors the seed's π and loss probabilities, and sends
  # a window its transitions rule out to the cold schedule first.
  if grep '"kind":"em-guard"' "$TMP/stream.jsonl" |
       grep -q '"reason":"warm:non-finite-likelihood"'; then
    echo "a warm start tripped warm:non-finite-likelihood" >&2
    exit 1
  fi
}

job_fleet() {
  # The instrumented run at 2 threads (the multi-threaded per-path route
  # whose artifacts are checked below) and a plain one at 1 print the
  # same stdout (timings go to stderr).
  DCL_PARALLELISM=2 bin fleet --quick --obs "$TMP/fleet.jsonl" \
    --metrics "$TMP/fleet-metrics.json" > "$TMP/fleet-2.out"
  DCL_PARALLELISM=1 bin fleet --quick > "$TMP/fleet-1.out"
  diff "$TMP/fleet-1.out" "$TMP/fleet-2.out"
  bin obs_check "$TMP/fleet.jsonl" 3
  bin obs_check --metrics "$TMP/fleet-metrics.json"
}

job_trace() {
  # Streaming: one verdict-provenance instant per window in the trace, a
  # metrics snapshot and an obs JSONL that validate, and the obs JSONL
  # renders through the explain bin.
  bin streaming --quick --obs "$TMP/trace-obs.jsonl" --metrics "$TMP/trace-stream-metrics.json"
  bin explain "$TMP/trace-obs.jsonl" --chrome "$TMP/trace-stream.json"
  bin obs_check --trace "$TMP/trace-stream.json" 2
  bin obs_check --metrics "$TMP/trace-stream-metrics.json"
  bin obs_check "$TMP/trace-obs.jsonl" 4
  bin explain "$TMP/trace-obs.jsonl" > /dev/null
  # Fleet: provenance for every usable quick-grid path (a deterministic 84
  # of the 120) must land in the trace, and the trace must not depend on
  # the thread count (the trace-level twin of the obs job's check).
  for t in 1 2; do
    DCL_PARALLELISM=$t bin fleet --quick --obs "$TMP/trace-fleet-$t.jsonl" > /dev/null
    bin explain "$TMP/trace-fleet-$t.jsonl" --chrome "$TMP/trace-fleet-$t.json"
    sed 's/"wall_ns":[0-9]*/"wall_ns":0/g' "$TMP/trace-fleet-$t.json" > "$TMP/trace-fleet-$t.canon.json"
  done
  bin obs_check --trace "$TMP/trace-fleet-2.json" 80
  cmp "$TMP/trace-fleet-1.canon.json" "$TMP/trace-fleet-2.canon.json"
}

job_perf() {
  bin perf --quick --out "$TMP/perf.json" --metrics "$TMP/perf-metrics.json"
  bin obs_check --perf "$TMP/perf.json"
  bin obs_check --metrics "$TMP/perf-metrics.json"
}

job_resilience() {
  # The recovery bin asserts that the restored continuation is bitwise
  # identical to an uninterrupted twin, across a run of unusable windows
  # and a contained panic; here its verdict-transition events and its
  # mid-run fleet checkpoint are validated too.
  bin recovery --obs "$TMP/recovery.jsonl" --checkpoint "$TMP/recovery-ck.json"
  bin obs_check "$TMP/recovery.jsonl" 3
  grep -q '"kind":"verdict-transition"' "$TMP/recovery.jsonl"
  # Every transition names its fleet path.
  if grep '"kind":"verdict-transition"' "$TMP/recovery.jsonl" |
       grep -vq '"path":[0-9]'; then
    echo "verdict-transition without a path index" >&2
    exit 1
  fi
  bin obs_check --checkpoint "$TMP/recovery-ck.json"
  # Kill/restore across two processes: snapshot half the stream, restore,
  # finish.
  bin streaming --quick --checkpoint "$TMP/stream-ck.json"
  bin obs_check --checkpoint "$TMP/stream-ck.json"
  bin streaming --quick --restore "$TMP/stream-ck.json"
}

job_clippy() {
  cargo clippy -q --locked --workspace --all-targets -- -D warnings
  # The forward–backward row layout stays in dcl-probnum's fb.rs: the
  # models and dcl-core read alpha and beta only through its methods.
  if grep -rnE '\.(alpha_row|beta_row|beta_on_support)\(' \
       crates/hmm/src crates/mmhd/src crates/core/src; then
    echo "forward-backward rows read outside dcl-probnum" >&2
    exit 1
  fi
  # Each paper bin's settings are declared once, in the scenario catalogue
  # (crates/bench/src/settings.rs, SCENARIOS).
  if grep -nE '\b(strongly|weakly|no_dcl)_setting\(' \
       crates/bench/src/bin/{table2,table3,table4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,fig13,fig14,ablation}.rs \
       tests/golden_regression.rs; then
    echo "paper settings built outside the scenario catalogue" >&2
    exit 1
  fi
  # The wide-area bins read FIG12-FIG14 rather than calling a wide-area
  # builder themselves.
  if grep -nE '\b(cornell_to_ufpr|ufpr_to_adsl|usevilla_to_adsl|snu_to_adsl|backbone_hop|adsl_hop)\b' \
       crates/bench/src/bin/{fig12,fig13,fig14}.rs; then
    echo "wide-area settings built outside the scenario catalogue" >&2
    exit 1
  fi
  # Random sub-segment draws belong to dcl_core::sweep: the bins run the
  # one duration-sweep protocol instead of drawing segments themselves.
  if grep -rnE '\bgen_range\b' crates/bench/src; then
    echo "segment draws in dcl-bench outside dcl_core::sweep" >&2
    exit 1
  fi
  # The report types' `==` is bit equality, so the integration tests pin
  # reports with plain `assert_eq!`; their synthetic stream is
  # tests/common's. No test file writes its own comparator or trace.
  if grep -nE '\bfn (assert_(bits_eq|\w*identical|\w*bitwise)|dominant_trace)\w*\b' tests/*.rs; then
    echo "report comparator or dominant-link trace outside tests/common" >&2
    exit 1
  fi
  # IdentifyConfig::em_options is the one translation of a configuration
  # into EM options: nothing else reads the configured EM schedule.
  if grep -rnE --include='*.rs' '\bem_(tol|max_iters)\b' crates src tests examples \
       | grep -v '^crates/core/src/identify\.rs:'; then
    echo "IdentifyConfig's EM schedule read outside IdentifyConfig::em_options" >&2
    exit 1
  fi
}

job_doc() {
  RUSTDOCFLAGS="-D warnings" cargo doc -q --locked --workspace --no-deps
}

for job in build fmt test dclperf determinism example obs robustness streaming \
           fleet trace perf resilience clippy doc; do
  run "$job"
done

if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "CI FAILED: ${FAILED[*]}" >&2
  exit 1
fi
echo "CI OK"
