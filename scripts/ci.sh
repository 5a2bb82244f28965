#!/usr/bin/env bash
# CI gate: tier-1 build + ctest, then a bench smoke whose JSON summaries
# are diffed so regressions fail loudly.
#
#   scripts/ci.sh                       # build, test, smoke, self-diff
#   scripts/ci.sh --full                # + static analysis & sanitizer
#                                       #   matrix (see below)
#   BENCH_BASELINE_DIR=path scripts/ci.sh   # additionally diff against
#                                           # a stored baseline
#
# Three examples then run end to end from a temporary dir and must exit
# 0: realtime_runtime, presence_dashboard and telemetry_export are the
# only end-to-end runs of the reactor with the HTTP routes, history and
# alerts attached, and each self-checks its own outcome. Then
# tools/probemon_loadgen probes a lingering realtime_runtime from its
# own socket and must get one 48-byte reply per probe.
#
# The self-diff runs the (deterministic, seeded) smoke benches twice and
# requires identical summaries -- it catches accidental nondeterminism
# and validates the tools/bench_diff.py pipeline on every run, even when
# no stored baseline exists. With BENCH_BASELINE_DIR set, the first
# smoke pass is also compared against that baseline at a looser
# threshold (override with BENCH_DIFF_THRESHOLD, percent).
#
# Every run also gates performance against the committed bench/baseline/
# snapshot: bench_a7_des_micro (DES kernel throughput),
# bench_telemetry_scale (registry registration rate, delta-scrape
# speedups, id-API-vs-string-API byte identity), bench_scale (fleet
# event throughput + heap bytes/entity at 10k/100k entities) and
# the bench_a13 history-sampling leg (series-samples/s into the ring,
# exact bytes/window) run into one scratch dir and are diffed in a
# single one-sided pass (throughput keys may drop, and
# bytes_per_entity / bytes_per_window may rise, at most
# BENCH_PERF_THRESHOLD percent, default 40; see docs/performance.md and
# docs/observability.md). The 1M-entity tier runs under --full only.
#
# --full appends the analysis matrix (docs/static_analysis.md):
#   * clang-tidy over src/ (skipped with a notice when not installed)
#   * tools/lint.py project rules, plus self-tests that seed violations
#     (a rand() call, a second ProbeCycle owner, a reply built outside
#     src/core, a metric family registered from two files, a raw
#     prefetch intrinsic, ...) in a scratch tree and require the linter
#     to catch them
#   * a tsan.supp audit (every suppression needs a reason comment)
#   * a clang -Wthread-safety -Werror=thread-safety build of the whole
#     tree plus tools/tsa_selftest.py (strip-and-flip proof that the
#     Registry/MetricsCollector annotations are load-bearing); skipped
#     with a warning when clang is absent, fatal under CI_TSA=1. Without
#     clang the self-test still checks that its manifest covers every
#     annotation
#   * scripts/check_format.sh (diff-only; skipped when clang-format is
#     not installed)
#   * an ASan+UBSan build with PROBEMON_CHECKED=ON running the full
#     ctest suite -- every Experiment self-audits its protocol
#     invariants and aborts the test on a violation
#   * a checked DES smoke (bench under the sanitized+checked build)
#   * both sanitizer trees configured against the system GTest, with
#     an ldd guard that fails when probemon_tests would load a
#     libstdc++ from outside the system library directories
#   * a thread,undefined build running every test that starts an
#     event loop (EventLoop, WallClockWheel, AsyncUdpTransport/Runtime/
#     Presence, the DES-vs-reactor EngineConformance tests, and the
#     routes, auditor, telemetry and alert tests that run a live
#     reactor service) plus the metric store's concurrency
#     tests (Registry, LabelInterner, DeltaExporter, ThreadSafety*),
#     then the whole suite under it as its own step
#   * a sampleprof smoke: report.py's doctests (the layer of a few
#     known function names), then tools/sampleprof/sampleprof.so
#     preloaded into a short bench_rt_scale run; report.py must print a
#     non-empty per-layer table, and its --hot view of the hottest
#     innermost function with an object file at least one instruction
#     row; then into a DES bench (bench_t1_sapp_steady, an Experiment
#     with Metrics and the auditor attached), whose observers and
#     network rows must both hold samples
# and writes bench_out/analysis_summary.json with machine-readable
# results (invariant violations, tidy warning count, lint findings,
# the TSan legs).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
THRESHOLD="${BENCH_DIFF_THRESHOLD:-15}"

FULL=0
if [[ "${1:-}" == "--full" ]]; then
  FULL=1
  shift
fi

# Short-duration, seeded smoke runs; one DES bench per protocol family.
SMOKE_BENCHES=(
  # t1 needs enough post-warmup samples for >= 2 batch means.
  "bench_t1_sapp_steady --seed=7 --duration=1000 --warmup=200"
  "bench_f5_dcpp_dynamic --seed=7"
  "bench_a5_detection --seed=7"
  # Small fleet tier: its s<N>.events/delivered counts are exact logical
  # tallies, so the determinism self-diff gates the scale path at 0%.
  "bench_scale --entities=5000 --duration=5 --seed=7"
)

echo "==> configure + build (${BUILD})"
cmake -B "$BUILD" -S "$ROOT" >/dev/null
cmake --build "$BUILD" -j >/dev/null

echo "==> tier-1 ctest"
ctest --test-dir "$BUILD" --output-on-failure -j

run_smoke() {
  # $1: scratch dir; benches write bench_out/ relative to cwd.
  local dir="$1"
  mkdir -p "$dir"
  for spec in "${SMOKE_BENCHES[@]}"; do
    # shellcheck disable=SC2086  # intentional word-split of the spec
    set -- $spec
    local bench="$1"; shift
    echo "    $bench $*"
    (cd "$dir" && "$BUILD/bench/$bench" "$@" >/dev/null)
  done
}

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

run_example() {
  # $@: example binary and its flags; it writes telemetry_out/ relative
  # to cwd, so it runs in the temporary dir. A failed self-check exits
  # non-zero.
  echo "    $*"
  (cd "$SCRATCH/examples" && "$BUILD/examples/$1" "${@:2}" >/dev/null)
}

echo "==> example self-checks (exit 0 required)"
mkdir -p "$SCRATCH/examples"
run_example realtime_runtime --duration=1
run_example presence_dashboard
run_example telemetry_export

# External-peer smoke: tools/probemon_loadgen is the one foreign
# receiver in the tree. Its plain socket has no UDP_GRO, so the
# reactor's coalesced replies must reach it segmented into single
# 48-byte wire datagrams (it counts any other size as a decode error).
# Devices 1..3 only: the example silences device 4 as its self-check.
echo "==> external-peer smoke (probemon_loadgen against realtime_runtime)"
RUNTIME_OUT="$SCRATCH/realtime_runtime.out"
: > "$RUNTIME_OUT"
(cd "$SCRATCH/examples" &&
   stdbuf -oL "$BUILD/examples/realtime_runtime" --duration=1 \
     --http-port=0 --linger=3 > "$RUNTIME_OUT" 2>&1) &
RUNTIME_PID=$!
UDP_PORT=""
for _ in $(seq 100); do
  UDP_PORT="$(sed -n 's/.*(UDP port \([0-9]*\)).*/\1/p' "$RUNTIME_OUT")"
  [[ -n "$UDP_PORT" ]] && break
  sleep 0.1
done
if [[ -z "$UDP_PORT" ]]; then
  echo "    FAILED: realtime_runtime printed no UDP port" >&2
  kill "$RUNTIME_PID" 2>/dev/null || true
  cat "$RUNTIME_OUT" >&2
  exit 1
fi
# A failed loadgen leaves its counts empty; the check below reports it.
"$BUILD/tools/probemon_loadgen" --target="$UDP_PORT" --rate=5000 \
  --duration=1 --devices=3 > "$SCRATCH/loadgen.out" || true
LOADGEN_SENT="$(awk '$1 == "sent" {print $2}' "$SCRATCH/loadgen.out")"
LOADGEN_REPLIES="$(awk '$1 == "replies" {print $2}' "$SCRATCH/loadgen.out")"
LOADGEN_DECODE_ERRORS="$(sed -n 's/.*decode errors \([0-9]*\)).*/\1/p' \
  "$SCRATCH/loadgen.out")"
RUNTIME_RC=0
wait "$RUNTIME_PID" || RUNTIME_RC=$?
echo "    sent ${LOADGEN_SENT} replies ${LOADGEN_REPLIES}" \
  "decode errors ${LOADGEN_DECODE_ERRORS}; realtime_runtime exit ${RUNTIME_RC}"
if [[ -z "$LOADGEN_SENT" || "$LOADGEN_SENT" -eq 0 ||
      "$LOADGEN_REPLIES" != "$LOADGEN_SENT" ||
      "$LOADGEN_DECODE_ERRORS" != "0" || "$RUNTIME_RC" -ne 0 ]]; then
  echo "    FAILED: every probe needs one 48-byte reply and the example" \
    "must exit 0" >&2
  cat "$SCRATCH/loadgen.out" "$RUNTIME_OUT" >&2
  exit 1
fi

echo "==> bench smoke (pass 1)"
run_smoke "$SCRATCH/run1"
echo "==> bench smoke (pass 2, same seeds)"
run_smoke "$SCRATCH/run2"

# Wall-clock-derived keys (wall_s, events_per_s, bytes_per_entity) vary
# run to run; the logical counts must not.
echo "==> determinism diff (pass 1 vs pass 2, threshold 0%)"
python3 "$ROOT/tools/bench_diff.py" \
  "$SCRATCH/run1/bench_out" "$SCRATCH/run2/bench_out" --threshold 0 \
  --ignore '(^|\.)(real_time|cpu_time|iterations|items_per_second|peak_rss_bytes)$|wall_s$|events_per_s$|bytes_per_entity$'

if [[ -n "${BENCH_BASELINE_DIR:-}" ]]; then
  echo "==> baseline diff ($BENCH_BASELINE_DIR, threshold ${THRESHOLD}%)"
  python3 "$ROOT/tools/bench_diff.py" \
    "$BENCH_BASELINE_DIR" "$SCRATCH/run1/bench_out" --threshold "$THRESHOLD" \
    --ignore '(^|\.)(real_time|cpu_time|iterations|items_per_second|peak_rss_bytes)$|wall_s$|events_per_s$|bytes_per_entity$'
else
  echo "==> no BENCH_BASELINE_DIR set; skipped stored-baseline diff"
  echo "    (seed one with: cp -r $SCRATCH/run1/bench_out <baseline-dir>)"
fi

# --- perf gate: DES kernel + telemetry scale vs the committed baseline.
# One pass over one scratch dir so bench_diff sees every baseline file
# (a baseline file absent from the current dir is itself a failure).
# One-sided keys (throughput, delta-scrape speedups) may only drop by
# PERF_THRESHOLD percent; machine context and absolute timings are
# ignored as noise. The byte-sized keys and the snapshot_identical
# boolean from bench_telemetry_scale are deterministic, so they gate
# exactly.
# Threshold is loose by design -- it exists to catch "someone
# accidentally reverted the timer wheel to a std::function heap" or
# "the delta scrape quietly became a full scrape", not 5% jitter on a
# busy CI box. Refresh the baselines with:
#   (cd /tmp && build/bench/bench_a7_des_micro --benchmark_min_time=0.5 \
#      --benchmark_out=bench/baseline/bench_a7_des_micro.json \
#      --benchmark_out_format=json)
#   (cd /tmp && build/bench/bench_telemetry_scale --series=1000,100000 \
#      --dirty=100 && cp bench_out/bench_telemetry_scale.json \
#      bench/baseline/)
#   (cd /tmp && build/bench/bench_scale --entities=10000,100000 &&
#      cp bench_out/bench_scale.json bench/baseline/)
#   (cd /tmp && build/bench/bench_a13_telemetry_micro \
#      --benchmark_filter=BM_HistorySample --benchmark_min_time=0.2 &&
#      cp bench_out/bench_a13_telemetry_micro.json bench/baseline/)
#   (cd /tmp && build/bench/bench_rt_scale &&
#      cp bench_out/bench_rt_scale.json bench/baseline/)
# bench_rt_scale is the event-loop runtime gate (real UDP, wall-clock
# driven, so it never takes part in the determinism self-diff): its
# probes_per_s / cycles_per_s / cycle_success_rate gate one-sided
# downward, and p99_reply_latency_s one-sided upward at a loose per-key
# 900% override (sub-ms absolute values on a quiet box; the override
# exists to catch "the loop went quadratic", not scheduler jitter).
# Its drop/error counters are informational (0 on a healthy box, but a
# loaded CI host can shed a datagram without that being a regression).
PERF_THRESHOLD="${BENCH_PERF_THRESHOLD:-40}"
echo "==> perf gate: DES kernel + telemetry + fleet scale (one-sided, threshold ${PERF_THRESHOLD}%)"
mkdir -p "$SCRATCH/perf"
"$BUILD/bench/bench_a7_des_micro" --benchmark_min_time=0.2 \
  --benchmark_out="$SCRATCH/perf/bench_a7_des_micro.json" \
  --benchmark_out_format=json >/dev/null 2>&1
(cd "$SCRATCH/perf" &&
   "$BUILD/bench/bench_telemetry_scale" --series=1000,100000 --dirty=100 \
     >/dev/null)
(cd "$SCRATCH/perf" &&
   "$BUILD/bench/bench_scale" --entities=10000,100000 >/dev/null)
(cd "$SCRATCH/perf" &&
   "$BUILD/bench/bench_a13_telemetry_micro" \
     --benchmark_filter=BM_HistorySample --benchmark_min_time=0.2 >/dev/null)
(cd "$SCRATCH/perf" && "$BUILD/bench/bench_rt_scale" >/dev/null)
mv "$SCRATCH/perf/bench_out/bench_telemetry_scale.json" \
   "$SCRATCH/perf/bench_out/bench_scale.json" \
   "$SCRATCH/perf/bench_out/bench_a13_telemetry_micro.json" \
   "$SCRATCH/perf/bench_out/bench_rt_scale.json" "$SCRATCH/perf/"
# s1000.speedup_time is too small-denominator to gate (a ~1ms delta
# scrape); the s100000 ratio is the stable witness of O(changed).
# bench_scale wall_s is absolute timing noise; its events_per_s gates
# one-sided downward and bytes_per_entity one-sided upward.
python3 "$ROOT/tools/bench_diff.py" "$ROOT/bench/baseline" "$SCRATCH/perf" \
  --ignore '(^|\.)(real_time|cpu_time|iterations|items_per_second|peak_rss_bytes)$|^context\.|_us$|speedup_time$|wall_s$|p50_reply_latency_s$|s[0-9]+\.(drops|recv_errors|send_errors|failed_cycles|watches_absent)$' \
  --higher-is-better 'items_per_second$|register_per_s$|speedup_bytes$|s100000\.speedup_time$|events_per_s$|probes_per_s$|cycles_per_s$|cycle_success_rate$' \
  --lower-is-better 'bytes_per_entity$|bytes_per_window$|p99_reply_latency_s$' \
  --max-regress-pct 'p99_reply_latency_s$=900' \
  --threshold "$PERF_THRESHOLD"

if [[ "$FULL" -eq 1 ]]; then
  echo "==> full analysis matrix"
  SUMMARY_DIR="$ROOT/bench_out"
  mkdir -p "$SUMMARY_DIR"

  # --- static: clang-tidy (best-effort where the toolchain lacks clang)
  TIDY_COUNT_FILE="$SCRATCH/tidy_count" "$ROOT/scripts/run_tidy.sh"
  TIDY_COUNT="$(cat "$SCRATCH/tidy_count" 2>/dev/null || echo skipped)"

  # --- static: project lint (fatal on findings)
  echo "==> tools/lint.py"
  python3 "$ROOT/tools/lint.py" --json "$SCRATCH/lint.json"

  # --- static: lint self-test -- seed a rand() call in a scratch tree
  # and require the linter to catch it (guards against the linter
  # silently rotting into a no-op).
  echo "==> lint self-test (seeded rand() must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/des"
  cat > "$SCRATCH/lint_selftest/src/des/seeded.cpp" <<'EOF'
#include <cstdlib>
int nondeterministic() { return rand(); }
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       > "$SCRATCH/lint_selftest.out" 2>&1; then
    echo "    FAILED: linter missed the seeded rand() call" >&2
    cat "$SCRATCH/lint_selftest.out" >&2
    exit 1
  fi
  grep -q 'no-wall-clock' "$SCRATCH/lint_selftest.out" || {
    echo "    FAILED: linter flagged something, but not no-wall-clock" >&2
    cat "$SCRATCH/lint_selftest.out" >&2
    exit 1
  }
  echo "    OK (no-wall-clock finding produced)"

  # --- static: lint self-test for the history/alerts wall-clock zone --
  # a steady_clock read seeded under src/telemetry/history must be
  # caught (sampling is caller-clocked; wall-clock driving lives in
  # runtime::HistoryTicker only).
  echo "==> lint self-test (seeded history clock read must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/telemetry/history"
  cat > "$SCRATCH/lint_selftest/src/telemetry/history/clocked.cpp" <<'EOF'
#include <chrono>
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/telemetry/history/clocked.cpp" \
       > "$SCRATCH/lint_selftest_hist.out" 2>&1; then
    echo "    FAILED: linter missed the seeded history clock read" >&2
    cat "$SCRATCH/lint_selftest_hist.out" >&2
    exit 1
  fi
  grep -q 'no-wall-clock' "$SCRATCH/lint_selftest_hist.out" || {
    echo "    FAILED: linter flagged something, but not no-wall-clock" >&2
    cat "$SCRATCH/lint_selftest_hist.out" >&2
    exit 1
  }
  echo "    OK (no-wall-clock finding produced in src/telemetry/history)"

  # --- static: lint self-test for the wall-clock exemption seam --
  # src/des/wall_clock.cpp IS the monotonic-clock adapter (the event
  # loop's time source), so a steady_clock read there must pass, while
  # the identical read in any other src/des file must still be caught.
  # Both directions, so the allowlist can neither rot into "exempts
  # nothing" nor quietly grow into "exempts everything".
  echo "==> lint self-test (wall_clock.cpp exemption is load-bearing)"
  cat > "$SCRATCH/lint_selftest/src/des/wall_clock.cpp" <<'EOF'
#include <chrono>
double monotonic_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
EOF
  if ! python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/des/wall_clock.cpp" \
       > "$SCRATCH/lint_selftest_wc.out" 2>&1; then
    echo "    FAILED: linter flagged the exempt wall_clock.cpp seam" >&2
    cat "$SCRATCH/lint_selftest_wc.out" >&2
    exit 1
  fi
  cp "$SCRATCH/lint_selftest/src/des/wall_clock.cpp" \
     "$SCRATCH/lint_selftest/src/des/clocked.cpp"
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/des/clocked.cpp" \
       > "$SCRATCH/lint_selftest_wc2.out" 2>&1; then
    echo "    FAILED: linter missed a clock read in a non-exempt des file" >&2
    cat "$SCRATCH/lint_selftest_wc2.out" >&2
    exit 1
  fi
  grep -q 'no-wall-clock' "$SCRATCH/lint_selftest_wc2.out" || {
    echo "    FAILED: linter flagged something, but not no-wall-clock" >&2
    cat "$SCRATCH/lint_selftest_wc2.out" >&2
    exit 1
  }
  echo "    OK (exempt seam passes, non-exempt des file still caught)"

  # --- static: lint self-test for the hot-path label rule -- a
  # string-keyed metric lookup seeded under src/des must be caught.
  echo "==> lint self-test (seeded string-label lookup must be caught)"
  cat > "$SCRATCH/lint_selftest/src/des/hot_labels.cpp" <<'EOF'
#include "telemetry/registry.hpp"
void on_event(probemon::telemetry::Registry& r) {
  r.counter("probes_total", "", {{"device", "d1"}}).inc();
}
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       > "$SCRATCH/lint_selftest2.out" 2>&1; then
    echo "    FAILED: linter missed the seeded string-label lookup" >&2
    cat "$SCRATCH/lint_selftest2.out" >&2
    exit 1
  fi
  grep -q 'no-string-labels' "$SCRATCH/lint_selftest2.out" || {
    echo "    FAILED: linter flagged something, but not no-string-labels" >&2
    cat "$SCRATCH/lint_selftest2.out" >&2
    exit 1
  }
  echo "    OK (no-string-labels finding produced)"

  # --- static: lint self-test for the hot-path allocation rule -- a
  # make_unique seeded into a probe-cycle file must be caught.
  echo "==> lint self-test (seeded hot-path allocation must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/core"
  cat > "$SCRATCH/lint_selftest/src/core/probe_cycle.cpp" <<'EOF'
#include <memory>
int* per_event_alloc() { return std::make_unique<int>(7).release(); }
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       > "$SCRATCH/lint_selftest3.out" 2>&1; then
    echo "    FAILED: linter missed the seeded hot-path allocation" >&2
    cat "$SCRATCH/lint_selftest3.out" >&2
    exit 1
  fi
  grep -q 'no-hot-path-alloc' "$SCRATCH/lint_selftest3.out" || {
    echo "    FAILED: linter flagged something, but not no-hot-path-alloc" >&2
    cat "$SCRATCH/lint_selftest3.out" >&2
    exit 1
  }
  echo "    OK (no-hot-path-alloc finding produced)"

  # --- static: lint self-test for the scenario callback rule -- a
  # std::function seeded under src/scenario must be caught.
  echo "==> lint self-test (seeded scenario std::function must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/scenario"
  cat > "$SCRATCH/lint_selftest/src/scenario/hook.cpp" <<'EOF'
#include <functional>
std::function<void()> hook;
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       > "$SCRATCH/lint_selftest4.out" 2>&1; then
    echo "    FAILED: linter missed the seeded scenario std::function" >&2
    cat "$SCRATCH/lint_selftest4.out" >&2
    exit 1
  fi
  grep -q 'no-std-function' "$SCRATCH/lint_selftest4.out" || {
    echo "    FAILED: linter flagged something, but not no-std-function" >&2
    cat "$SCRATCH/lint_selftest4.out" >&2
    exit 1
  }
  echo "    OK (no-std-function finding produced)"

  # --- static: lint self-test for the annotated-locks rule -- a raw
  # std::mutex seeded under src/runtime must be caught (all of src/
  # synchronizes through the TSA-annotated util::Mutex wrappers).
  echo "==> lint self-test (seeded raw std::mutex must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/runtime"
  cat > "$SCRATCH/lint_selftest/src/runtime/raw_lock.cpp" <<'EOF'
#include <mutex>
std::mutex raw_mutex;
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/runtime/raw_lock.cpp" \
       > "$SCRATCH/lint_selftest5.out" 2>&1; then
    echo "    FAILED: linter missed the seeded raw std::mutex" >&2
    cat "$SCRATCH/lint_selftest5.out" >&2
    exit 1
  fi
  grep -q 'annotated-locks' "$SCRATCH/lint_selftest5.out" || {
    echo "    FAILED: linter flagged something, but not annotated-locks" >&2
    cat "$SCRATCH/lint_selftest5.out" >&2
    exit 1
  }
  echo "    OK (annotated-locks finding produced)"

  # --- static: lint self-test for the one-probe-cycle rule -- a second
  # cycle owner seeded under src/runtime must be caught, while the
  # same name under src/core (the one owner) must pass.
  echo "==> lint self-test (seeded second ProbeCycle owner must be caught)"
  cat > "$SCRATCH/lint_selftest/src/runtime/second_owner.hpp" <<'EOF'
#pragma once
#include "core/probe_cycle.hpp"
struct SecondOwner { probemon::core::ProbeCycle cycle; };
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/runtime/second_owner.hpp" \
       > "$SCRATCH/lint_selftest6.out" 2>&1; then
    echo "    FAILED: linter missed the seeded second ProbeCycle owner" >&2
    cat "$SCRATCH/lint_selftest6.out" >&2
    exit 1
  fi
  grep -q 'one-probe-cycle' "$SCRATCH/lint_selftest6.out" || {
    echo "    FAILED: linter flagged something, but not one-probe-cycle" >&2
    cat "$SCRATCH/lint_selftest6.out" >&2
    exit 1
  }
  cp "$SCRATCH/lint_selftest/src/runtime/second_owner.hpp" \
     "$SCRATCH/lint_selftest/src/core/one_owner.hpp"
  if ! python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/core/one_owner.hpp" \
       > "$SCRATCH/lint_selftest7.out" 2>&1; then
    echo "    FAILED: linter flagged ProbeCycle under src/core" >&2
    cat "$SCRATCH/lint_selftest7.out" >&2
    exit 1
  fi
  echo "    OK (one-probe-cycle finding produced outside src/core only)"

  # --- static: lint self-test for the one-device rule -- a reply built
  # under src/runtime (a second device copy) must be caught, while the
  # same line under src/core (the one device) must pass.
  echo "==> lint self-test (seeded second device must be caught)"
  cat > "$SCRATCH/lint_selftest/src/runtime/second_device.cpp" <<'EOF'
#include "net/message.hpp"
void answer(probemon::net::Message& reply) {
  reply.kind = probemon::net::MessageKind::kReply;
}
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/runtime/second_device.cpp" \
       > "$SCRATCH/lint_selftest8.out" 2>&1; then
    echo "    FAILED: linter missed the seeded second device" >&2
    cat "$SCRATCH/lint_selftest8.out" >&2
    exit 1
  fi
  grep -q 'one-device' "$SCRATCH/lint_selftest8.out" || {
    echo "    FAILED: linter flagged something, but not one-device" >&2
    cat "$SCRATCH/lint_selftest8.out" >&2
    exit 1
  }
  cp "$SCRATCH/lint_selftest/src/runtime/second_device.cpp" \
     "$SCRATCH/lint_selftest/src/core/one_device.cpp"
  if ! python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/core/one_device.cpp" \
       > "$SCRATCH/lint_selftest9.out" 2>&1; then
    echo "    FAILED: linter flagged a reply built under src/core" >&2
    cat "$SCRATCH/lint_selftest9.out" >&2
    exit 1
  fi
  echo "    OK (one-device finding produced outside src/core only)"

  # --- static: lint self-test for the one-metric-owner rule -- one
  # probemon_* family registered from two files under src/ (the second
  # call spread over lines) must be caught, while either file alone
  # must pass.
  echo "==> lint self-test (a metric family with two producers must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/telemetry"
  cat > "$SCRATCH/lint_selftest/src/runtime/first_owner.cpp" <<'EOF'
#include "telemetry/registry.hpp"
void produce(probemon::telemetry::Registry& r) {
  r.counter("probemon_selftest_total", "Seeded family").inc();
}
EOF
  cat > "$SCRATCH/lint_selftest/src/telemetry/second_owner.cpp" <<'EOF'
#include "telemetry/registry.hpp"
void produce_again(probemon::telemetry::Registry* r) {
  r->counter(
       "probemon_selftest_total", "Same family, second producer")
      .inc();
}
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/runtime/first_owner.cpp" \
       "$SCRATCH/lint_selftest/src/telemetry/second_owner.cpp" \
       > "$SCRATCH/lint_selftest10.out" 2>&1; then
    echo "    FAILED: linter missed the family with two producers" >&2
    cat "$SCRATCH/lint_selftest10.out" >&2
    exit 1
  fi
  grep -q 'one-metric-owner' "$SCRATCH/lint_selftest10.out" || {
    echo "    FAILED: linter flagged something, but not one-metric-owner" >&2
    cat "$SCRATCH/lint_selftest10.out" >&2
    exit 1
  }
  for one in runtime/first_owner.cpp telemetry/second_owner.cpp; do
    if ! python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
         "$SCRATCH/lint_selftest/src/$one" \
         > "$SCRATCH/lint_selftest11.out" 2>&1; then
      echo "    FAILED: linter flagged a family with one producer ($one)" >&2
      cat "$SCRATCH/lint_selftest11.out" >&2
      exit 1
    fi
  done
  echo "    OK (one-metric-owner finding produced for two producers only)"

  # --- static: lint self-test for the one-prefetch rule -- a raw
  # __builtin_prefetch seeded under src/net must be caught, while the
  # same line in the helper header (the one sanctioned home) must pass.
  echo "==> lint self-test (seeded raw prefetch intrinsic must be caught)"
  mkdir -p "$SCRATCH/lint_selftest/src/net" "$SCRATCH/lint_selftest/src/util"
  cat > "$SCRATCH/lint_selftest/src/net/seeded_prefetch.hpp" <<'EOF'
#pragma once
inline void warm(const void* p) { __builtin_prefetch(p); }
EOF
  if python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/net/seeded_prefetch.hpp" \
       > "$SCRATCH/lint_selftest12.out" 2>&1; then
    echo "    FAILED: linter missed the seeded raw prefetch intrinsic" >&2
    cat "$SCRATCH/lint_selftest12.out" >&2
    exit 1
  fi
  grep -q 'one-prefetch' "$SCRATCH/lint_selftest12.out" || {
    echo "    FAILED: linter flagged something, but not one-prefetch" >&2
    cat "$SCRATCH/lint_selftest12.out" >&2
    exit 1
  }
  cp "$SCRATCH/lint_selftest/src/net/seeded_prefetch.hpp" \
     "$SCRATCH/lint_selftest/src/util/prefetch.hpp"
  if ! python3 "$ROOT/tools/lint.py" --root "$SCRATCH/lint_selftest" \
       "$SCRATCH/lint_selftest/src/util/prefetch.hpp" \
       > "$SCRATCH/lint_selftest13.out" 2>&1; then
    echo "    FAILED: linter flagged the prefetch helper header" >&2
    cat "$SCRATCH/lint_selftest13.out" >&2
    exit 1
  fi
  echo "    OK (one-prefetch finding produced outside the helper only)"

  # --- static: every tsan.supp suppression must carry a reason comment
  # directly above it (stale or unexplained suppressions hide real
  # races; see the satellite audit in docs/static_analysis.md).
  echo "==> tsan.supp audit (every suppression needs a reason comment)"
  python3 - "$ROOT/scripts/tsan.supp" <<'EOF'
import sys
path = sys.argv[1]
prev_comment = False
bad = []
for lineno, raw in enumerate(open(path), start=1):
    line = raw.strip()
    if not line:
        prev_comment = False
        continue
    if line.startswith("#"):
        prev_comment = True
        continue
    if not prev_comment:
        bad.append((lineno, line))
    # A comment block covers every suppression until a blank line.
if bad:
    for lineno, line in bad:
        print(f"    {path}:{lineno}: suppression without a reason "
              f"comment above it: {line}", file=sys.stderr)
    sys.exit(1)
print("    OK (all suppressions documented)")
EOF

  # --- static: formatting, diff-only (advisory skip when absent)
  "$ROOT/scripts/check_format.sh"

  # --- static: clang Thread Safety Analysis leg. A full build with
  # -Wthread-safety promoted to errors, then the strip-and-flip
  # self-test proving the Registry/MetricsCollector annotations are
  # load-bearing (tools/tsa_selftest.py). Needs clang; without it the
  # leg is skipped with a warning, unless CI_TSA=1 demands it.
  CLANG_CXX="${CLANG_CXX:-clang++}"
  TSA_BUILD_STATUS="skipped"
  TSA_SELFTEST_STATUS="skipped"
  if command -v "$CLANG_CXX" >/dev/null 2>&1; then
    TSA_BUILD_DIR="${TSA_BUILD_DIR:-$ROOT/build-tsa}"
    echo "==> clang thread-safety build (-Wthread-safety -Werror=thread-safety, ${TSA_BUILD_DIR})"
    cmake -B "$TSA_BUILD_DIR" -S "$ROOT" \
      -DCMAKE_CXX_COMPILER="$CLANG_CXX" -DPROBEMON_TSA=ON >/dev/null
    cmake --build "$TSA_BUILD_DIR" -j >/dev/null
    TSA_BUILD_STATUS="passed"
    echo "==> tools/tsa_selftest.py (strip-and-flip annotation check)"
    python3 "$ROOT/tools/tsa_selftest.py" --clang "$CLANG_CXX" \
      --json "$SCRATCH/tsa_selftest.json"
    TSA_SELFTEST_STATUS="passed"
  elif [[ "${CI_TSA:-0}" == "1" ]]; then
    echo "ERROR: CI_TSA=1 requests the clang thread-safety leg, but" >&2
    echo "       '$CLANG_CXX' was not found. Install clang or point" >&2
    echo "       CLANG_CXX at a clang++ binary." >&2
    exit 1
  else
    echo "==> clang thread-safety leg skipped ('$CLANG_CXX' not found;"
    echo "    set CLANG_CXX or install clang. CI_TSA=1 makes this fatal)"
    # The manifest coverage count needs no clang: exit 3 means every
    # annotation has a probe (the probes themselves are skipped), 1 a
    # stale manifest.
    echo "==> tools/tsa_selftest.py (manifest coverage only)"
    TSA_SELFTEST_RC=0
    python3 "$ROOT/tools/tsa_selftest.py" --clang "$CLANG_CXX" ||
      TSA_SELFTEST_RC=$?
    if [[ "$TSA_SELFTEST_RC" -ne 3 ]]; then
      echo "    FAILED: tsa_selftest.py exited $TSA_SELFTEST_RC" >&2
      exit 1
    fi
    TSA_SELFTEST_STATUS="coverage_only"
  fi

  # The sanitizer trees link the system GTest (CMAKE_PREFIX_PATH=/usr):
  # one found under another prefix first on PATH, such as a conda
  # install, gives the test binary that prefix's RUNPATH, and the binary
  # then loads that prefix's libstdc++ -- under which TSan reported
  # "races" inside its own IsAccessibleMemoryRange in every threaded
  # test. This guard fails the leg when the tests resolve libstdc++ from
  # outside the system library directories (a tree configured before
  # the flag keeps its cached GTest_DIR: delete it and rebuild).
  check_system_libstdcxx() {
    local lib
    lib="$(ldd "$1" | awk '$1 ~ /^libstdc\+\+\.so/ {print $3}')"
    case "$lib" in
      /lib/*|/lib64/*|/usr/lib/*|/usr/lib64/*)
        echo "    $(basename "$1"): libstdc++ from $lib" ;;
      *)
        echo "    FAILED: $1 resolves libstdc++ from '${lib:-nowhere}'," >&2
        echo "    not from the system library directories" >&2
        exit 1 ;;
    esac
  }

  # --- dynamic: ASan+UBSan build with the invariant auditor armed
  ASAN_BUILD="${ASAN_BUILD_DIR:-$ROOT/build-asan}"
  echo "==> sanitizer matrix: address,undefined + PROBEMON_CHECKED (${ASAN_BUILD})"
  cmake -B "$ASAN_BUILD" -S "$ROOT" -DCMAKE_PREFIX_PATH=/usr \
    -DPROBEMON_SANITIZE=address -DPROBEMON_CHECKED=ON >/dev/null
  cmake --build "$ASAN_BUILD" -j >/dev/null
  echo "==> ldd guard: the ASan tests load the system libstdc++"
  check_system_libstdcxx "$ASAN_BUILD/tests/probemon_tests"
  ctest --test-dir "$ASAN_BUILD" --output-on-failure -j

  # --- dynamic: lock-order detector smoke. The checked build arms the
  # util::Mutex acquisition hooks; the LockOrder tests include a
  # deliberate ABBA cycle that must abort with both lock names.
  echo "==> lock-order detector smoke (checked build, deliberate ABBA)"
  # A bare -j would take -R as its argument and run the whole suite
  # (ctest 3.25): every filtered call names its job count.
  ctest --test-dir "$ASAN_BUILD" --output-on-failure -j4 -R 'LockOrder'

  # --- dynamic: checked DES smoke (auditor attached, abort on violation)
  echo "==> checked DES smoke (auditor armed)"
  mkdir -p "$SCRATCH/checked_smoke"
  (cd "$SCRATCH/checked_smoke" &&
     "$ASAN_BUILD/bench/bench_a5_detection" --seed=7 >/dev/null)

  # --- scale: the full 1M-entity SAPP tier (release build; short virtual
  # horizon -- the gate is that a million live entities build, run, and
  # tear down at flat bytes/entity, not a long steady-state number).
  echo "==> bench_scale 1M-entity SAPP tier"
  mkdir -p "$SCRATCH/scale_full"
  (cd "$SCRATCH/scale_full" &&
     "$BUILD/bench/bench_scale" --entities=1000000 --protocols=sapp \
       --duration=2)

  # --- scale: the 100k-endpoint real-time tier (ungated -- wall-clock
  # numbers on a shared box are informational at this size). At the
  # default 5 cycles/s, 100k live endpoints demand 250k probes/s, near
  # one loop thread's capacity on a loaded host, so the tier rate-caps
  # each CP at 2/s (d_min=0.5): ~100k probes/s of real UDP with every
  # watch still present at the end.
  echo "==> bench_rt_scale 100k-endpoint tier (d_min=0.5)"
  (cd "$SCRATCH/scale_full" &&
     "$BUILD/bench/bench_rt_scale" --endpoints=100000 --duration=3 \
       --d-min=0.5)

  # --- profile: the SIGPROF sampler (tools/sampleprof/) preloaded into a
  # short bench_rt_scale run must write its samples, and report.py must
  # attribute the loop thread's to layers -- the tool behind the
  # per-layer splits in docs/performance.md. A smoke, not a measurement.
  # report.py's doctests pin which layer a few known names land in
  # (the clock reads, a core function taking a net::Message).
  echo "==> report.py doctests"
  python3 -m doctest "$ROOT/tools/sampleprof/report.py"
  echo "==> sampleprof smoke (bench_rt_scale under the SIGPROF sampler)"
  mkdir -p "$SCRATCH/sampleprof"
  (cd "$SCRATCH/sampleprof" &&
     LD_PRELOAD="$BUILD/tools/sampleprof.so" \
       "$BUILD/bench/bench_rt_scale" --endpoints=20000 --duration=2 \
       >/dev/null)
  SAMPLEPROF_CAPTURE="$(ls "$SCRATCH"/sampleprof/sampleprof.*.txt | head -1)"
  python3 "$ROOT/tools/sampleprof/report.py" "$SAMPLEPROF_CAPTURE" \
    > "$SCRATCH/sampleprof.out"
  cat "$SCRATCH/sampleprof.out"
  awk -F'|' '$3 ~ /^ *[0-9]+ *$/ {n += $3} END {exit !(n > 0)}' \
    "$SCRATCH/sampleprof.out" || {
    echo "    FAILED: sampleprof produced an empty layer table" >&2
    exit 1
  }
  # The per-instruction view (--hot) of the hottest innermost function
  # that lives in an object file ([vdso] and unresolved frames have
  # none to disassemble) must attribute its samples to instructions.
  HOT_FN="$(awk '/^# innermost functions/ {on = 1; next}
    on && sub(/^ *[0-9.]+%  /, "") && $0 != "[vdso]" && $0 != "?" {
      print; exit
    }' "$SCRATCH/sampleprof.out")"
  echo "==> sampleprof --hot '${HOT_FN}'"
  python3 "$ROOT/tools/sampleprof/report.py" "$SAMPLEPROF_CAPTURE" \
    --top 10 --hot "$HOT_FN" > "$SCRATCH/sampleprof_hot.out" || true
  sed -n '/^# hot instructions/,$p' "$SCRATCH/sampleprof_hot.out"
  grep -q '^| 0x[0-9a-f]* | [0-9]* |' "$SCRATCH/sampleprof_hot.out" || {
    echo "    FAILED: sampleprof --hot printed no instruction rows" >&2
    exit 1
  }
  # The DES side: a SAPP Experiment, whose protocol observers (Metrics
  # behind the fan-out) and simulated network must each get their own
  # row rather than being spread over the rows of their callers.
  echo "==> sampleprof smoke (bench_t1_sapp_steady under the SIGPROF sampler)"
  mkdir -p "$SCRATCH/sampleprof_des"
  (cd "$SCRATCH/sampleprof_des" &&
     LD_PRELOAD="$BUILD/tools/sampleprof.so" \
       "$BUILD/bench/bench_t1_sapp_steady" --seed=7 --duration=300000 \
       --warmup=200 >/dev/null)
  python3 "$ROOT/tools/sampleprof/report.py" \
    "$(ls "$SCRATCH"/sampleprof_des/sampleprof.*.txt | head -1)" \
    > "$SCRATCH/sampleprof_des.out"
  cat "$SCRATCH/sampleprof_des.out"
  for layer in observers network; do
    awk -F'|' -v layer="$layer" '$2 == " " layer " " && $3 + 0 > 0 {ok = 1}
      END {exit !ok}' "$SCRATCH/sampleprof_des.out" || {
      echo "    FAILED: sampleprof put no DES sample in the $layer row" >&2
      exit 1
    }
  done

  # --- dynamic: thread,undefined build, two always-on steps. The
  # reactor leg: start/stop churn under a concurrent scrape,
  # cross-thread post(), the async transport/presence stack and its
  # core devices, and every other test that starts an EventLoop (HTTP
  # routes, auditor, telemetry and the device_load rule over a live
  # service) -- the loop-confinement contract TSan exists to vet --
  # plus the metric store's concurrency tests: registration and scrapes
  # racing on one Registry lock, delta cursors scraping from several
  # threads, the lock-free LabelInterner, and the collector and history
  # ThreadSafety suites. Then the whole suite, SweepRunner's thread
  # pool included.
  TSAN_BUILD="${TSAN_BUILD_DIR:-$ROOT/build-tsan}"
  TSAN_REACTOR='EventLoop|WallClockWheel|Async(UdpTransport|Runtime|Presence)'
  TSAN_REACTOR+='|HttpRoutes\.WatchesAndHealthzOverLiveService'
  TSAN_REACTOR+='|InvariantAuditor\.(RuntimeWatchAuditsToZero|RemoteDeviceIdIsCountedSparsely'
  TSAN_REACTOR+='|ResultsReadFromAnotherThreadWhileTheLoopRecords)'
  TSAN_REACTOR+='|PresenceServiceTelemetry\.|TransportTelemetry\.'
  TSAN_REACTOR+='|DefaultRules\.DeviceLoadReadsALiveReactorDevice'
  TSAN_REACTOR+='|EngineConformance\.'
  TSAN_REACTOR+='|Registry\.|LabelInterner\.|DeltaExporter\.|ThreadSafety'
  echo "==> sanitizer matrix: thread,undefined (${TSAN_BUILD})"
  cmake -B "$TSAN_BUILD" -S "$ROOT" -DCMAKE_PREFIX_PATH=/usr \
    -DPROBEMON_SANITIZE=thread,undefined >/dev/null
  cmake --build "$TSAN_BUILD" -j >/dev/null
  echo "==> ldd guard: the TSan tests load the system libstdc++"
  check_system_libstdcxx "$TSAN_BUILD/tests/probemon_tests"
  # scripts/tsan.supp silences one sanitizer-runtime false positive
  # (UBSan's IsAccessibleMemoryRange pipe probe); see the file.
  export TSAN_OPTIONS="suppressions=$ROOT/scripts/tsan.supp ${TSAN_OPTIONS:-}"
  echo "==> tsan: event-loop reactor and metric-store tests"
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j4 -R "$TSAN_REACTOR" |
    tee "$SCRATCH/tsan_reactor.out"
  # The count of the run above, not of a separate listing.
  TSAN_REACTOR_TESTS="$(sed -n 's/.* tests failed out of \([0-9]*\)$/\1/p' \
    "$SCRATCH/tsan_reactor.out")"
  echo "==> tsan: whole suite"
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j4

  # --- machine-readable summary. The checked suite aborts on any
  # invariant violation, so reaching this line means the tally is 0.
  python3 - "$SUMMARY_DIR/analysis_summary.json" "$SCRATCH/lint.json" \
    "$TIDY_COUNT" "$TSA_BUILD_STATUS" "$TSA_SELFTEST_STATUS" \
    "$TSAN_REACTOR_TESTS" <<'EOF'
import json, sys
out, lint_path, tidy, tsa_build, tsa_selftest = sys.argv[1:6]
tsan_reactor_tests = sys.argv[6]
lint = json.load(open(lint_path))
json.dump({
    "invariant_violations": 0,
    "checked_suite": "passed",
    "sanitizers": ["address", "undefined", "thread"],
    "tsan_reactor_leg": "passed",
    "tsan_reactor_tests": int(tsan_reactor_tests),
    "tsan_full_suite": "passed",
    "tidy_warnings": None if tidy == "skipped" else int(tidy),
    "tidy_ran": tidy != "skipped",
    "lint_findings": len(lint["findings"]),
    "lint_files_scanned": lint["files_scanned"],
    "tsa_build": tsa_build,
    "tsa_selftest": tsa_selftest,
    "tsa_ran": tsa_build == "passed",
    "lock_order_smoke": "passed",
    "sampleprof_smoke": "passed",
}, open(out, "w"), indent=2)
print(f"==> wrote {out}")
EOF
fi

echo "==> ci.sh OK"
