#!/usr/bin/env python3
"""probemon custom lint: project rules no generic tool checks.

Rules (suppress a line with ``NOLINT(<rule>)`` plus a reason comment):

  no-wall-clock      src/des + src/core must be deterministic: all time
                     comes from the Scheduler/Simulation clock and all
                     randomness from util::Rng. Forbids rand()/srand(),
                     time(), clock(), gettimeofday and the std::chrono
                     clocks. (A DES that reads the wall clock is not
                     reproducible; the repo's determinism tests diff
                     whole runs bit-for-bit.) Also enforced over
                     src/telemetry/history + src/telemetry/alerts:
                     sampling and alert evaluation are caller-clocked
                     (sample(t)/evaluate(t)) so DES runs replay
                     byte-identically; wall-clock driving belongs in
                     runtime::HistoryTicker. The one sanctioned
                     monotonic seam — src/des/wall_clock.* — is
                     allowlisted via WALL_CLOCK_EXEMPT below.
  no-naked-new       Ownership is expressed with std::make_unique /
                     std::make_shared / containers; a naked `new`
                     expression leaks on exception paths.
  counter-registry   telemetry metric primitives (telemetry::Counter /
                     Gauge / Histogram) must be obtained from
                     telemetry::Registry so they appear in /metrics and
                     exports; constructing them directly bypasses
                     naming, labels and exposition. (Registry internals
                     under src/telemetry are exempt.)
  pragma-once        Every header starts with `#pragma once` (after any
                     leading comment block) — the repo's include-guard
                     convention.
  no-std-function    src/des + src/core are the allocation-free hot
                     path: event callbacks are util::InlineFunction
                     (small-buffer capture, spill-counted), and
                     a std::function sneaking back in silently
                     reintroduces per-event heap allocation. Forbids
                     std::function and the <functional> include in
                     those trees, plus src/scenario (experiment setup
                     feeds callables into the hot path; the two
                     sanctioned factory/job types carry NOLINTs).
  no-hot-path-alloc  The probe-cycle hot path (probe_cycle.*,
                     device_base.cpp, control_point_base.cpp under
                     src/core) runs once per event at fleet scale and
                     must not heap-allocate: entity state lives in the
                     entity objects, queued probes in the EntityArena's
                     pooled queue nodes, callbacks in InlineFunction
                     buffers. Forbids
                     std::make_unique / std::make_shared / .reset(new
                     in those files (naked new is already global).
  annotated-locks    src/ synchronizes through the TSA-annotated
                     wrappers in src/util/thread_annotations.hpp
                     (util::Mutex / MutexLock / ReleasableMutexLock /
                     SharedMutex / CondVar) so a clang
                     -Wthread-safety build can check lock discipline
                     and the PROBEMON_CHECKED lock-order detector sees
                     every acquisition. Raw std::mutex /
                     std::shared_mutex / std::lock_guard /
                     std::unique_lock / std::condition_variable (and
                     their includes) are forbidden outside the wrapper
                     header; the sanctioned few (the wrappers' own
                     internals, the lock-order detector itself) carry
                     NOLINT with a reason.
  no-string-labels   src/des + src/core must not build metric series
                     from raw strings: the string-keyed telemetry API
                     (registry.counter("name", ...) / telemetry::Labels
                     literals) allocates and hashes strings per call.
                     Hot paths intern names/labels once at setup and
                     use the *_ids interned-id overloads
                     (Registry::counter_ids et al.), holding the
                     returned metric reference.
  one-probe-cycle    The bounded-retransmission cycle has one owner,
                     core::ControlPointBase; every engine runs it through
                     the clock + link port. Naming core::ProbeCycle in
                     src/ outside src/core/ means a second copy of the
                     cycle logic is growing, and copies drift (a reactor
                     copy once dropped the replies SAPP's L_exp rule
                     uses). SappAdaptation is not covered: the collector
                     reuses it legitimately.
  one-device         The device rules have one owner, core::BasicDevice
                     and its SAPP/DCPP subclasses; the simulator's serial
                     server and the reactor's inline one both build the
                     reply there. Assigning MessageKind::kReply in src/
                     outside src/core/ means a second copy of the device
                     is growing (a reactor copy once dropped the
                     last-probers piggyback, bye and adaptive Delta).
                     Comparisons against kReply are not covered.
  one-metric-owner   A probemon_* metric family has one producer. The
                     same name passed as the first argument of a Registry
                     registration (counter, gauge, histogram,
                     counter_callback, gauge_callback; the call may span
                     lines) from more than one file under src/ means two
                     producers, and their meanings drift (a simulator
                     sink once recorded departure-to-declaration under
                     the service's first-unanswered-probe-to-declaration
                     name). Names read back by queries, such as the
                     default alert rules' series, are not registrations.
  one-prefetch       Every software prefetch under src/ goes through
                     util::prefetch (src/util/prefetch.hpp), an asm
                     volatile statement the optimizer must keep. GCC 12
                     at -O2 has deleted a __builtin_prefetch of an
                     address loaded through a slab table (tree-DCE), and
                     a deleted prefetch costs nothing visible but the
                     speed it was meant to buy. Forbids __builtin_prefetch
                     and _mm_prefetch under src/ outside that header.

Usage:
  tools/lint.py                  # lint src/ under the repo root
  tools/lint.py --root DIR       # lint DIR/src (used by the ci.sh
                                 # self-test on a scratch tree)
  tools/lint.py path/to/file...  # lint specific files
  tools/lint.py --list-rules
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

# --- rule definitions -------------------------------------------------------

# no-wall-clock: matched against code lines of files whose path contains
# a src/des or src/core component.
WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bs?rand\s*\("), "rand()/srand() (use util::Rng)"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() (use the simulation clock)"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock() (use the simulation clock)"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday (use the simulation clock)"),
    (re.compile(r"\bclock_gettime\b"),
     "clock_gettime (use the simulation clock)"),
    (re.compile(r"std::chrono::(?:system|steady|high_resolution)_clock"),
     "std::chrono clock (use the simulation clock)"),
]

# no-wall-clock allowlist: the single sanctioned monotonic-time seam.
# src/des/wall_clock.* exists precisely to re-clock the DES timer wheel
# off CLOCK_MONOTONIC for the real-time reactor; everything else in the
# zone stays caller-clocked. Matched with endswith() so the ci.sh
# self-test can exercise it on a scratch tree.
WALL_CLOCK_EXEMPT = (
    "src/des/wall_clock.hpp",
    "src/des/wall_clock.cpp",
)

NAKED_NEW = re.compile(r"(?<![\w.>])new\s+(?:\(\s*std::nothrow\s*\)\s*)?[A-Za-z_]")
PLACEMENT_NEW = re.compile(r"new\s*\(")  # placement new is not ownership

COUNTER_DIRECT = re.compile(
    r"(?:telemetry::(?:Counter|Gauge|Histogram)\s+[A-Za-z_]"
    r"|make_unique<\s*telemetry::(?:Counter|Gauge|Histogram)\b"
    r"|new\s+telemetry::(?:Counter|Gauge|Histogram)\b)")

PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b")

# no-std-function: matched in src/des + src/core (the allocation-free
# event path) and src/scenario (its callables flow into that path).
# util::InlineFunction is the sanctioned callable there.
STD_FUNCTION = re.compile(r"\bstd::function\s*<")
FUNCTIONAL_INCLUDE = re.compile(r'^\s*#\s*include\s*<functional>')

# no-hot-path-alloc: the per-event files under src/core that every probe
# cycle touches. Allocation belongs in construction/setup code; these
# files execute once per event across million-entity fleets.
HOT_PATH_FILES = {
    "probe_cycle.hpp", "probe_cycle.cpp",
    "device_base.cpp", "control_point_base.cpp",
}
HOT_ALLOC = re.compile(
    r"std::make_(?:unique|shared)\s*<|\.\s*reset\s*\(\s*new\b")

# no-string-labels: matched in src/des + src/core. String-keyed metric
# lookups (name + label strings hashed per call) and telemetry::Labels
# literals belong in setup code; hot paths use interned ids. Note
# strip_noise() empties string literals, so the call pattern matches
# the surviving opening quote of the metric-name argument.
STRING_LABELS = re.compile(
    r"\.\s*(?:counter|gauge|histogram)\s*\(\s*\""
    r"|\btelemetry::Labels\b")

# annotated-locks: raw standard synchronization primitives, and their
# headers, anywhere under src/ except the wrapper header itself.
RAW_LOCKS = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|recursive_timed_mutex|shared_timed_mutex"
    r"|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b")
LOCK_INCLUDE = re.compile(
    r"^\s*#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")
ANNOTATED_LOCKS_EXEMPT = "src/util/thread_annotations.hpp"

# one-probe-cycle: the cycle FSM's type name, anywhere under src/ except
# src/core/ (ProbeCycleTrace/ProbeCycleTracer are other words).
PROBE_CYCLE = re.compile(r"\bProbeCycle\b")

# one-device: a reply's kind assigned (not compared) anywhere under src/
# except src/core/.
REPLY_BUILT = re.compile(
    r"(?<![=!<>])=(?!=)\s*(?:\w+::)*MessageKind::kReply\b")

# one-metric-owner: a probemon_* family name as the first argument of a
# Registry registration, matched over a file's code with comments
# removed and string literals kept, so a call may span lines.
METRIC_REGISTRATION = re.compile(
    r"(?:\.|->)\s*(?:counter|gauge|histogram|counter_callback"
    r"|gauge_callback)\s*\(\s*\"(probemon_[A-Za-z0-9_]*)\"")

# one-prefetch: prefetch intrinsics anywhere under src/ except the one
# helper header.
PREFETCH_INTRINSIC = re.compile(r"\b(?:__builtin_prefetch|_mm_prefetch)\s*\(")
PREFETCH_HELPER = "src/util/prefetch.hpp"

NOLINT = re.compile(r"NOLINT\(([^)]*)\)")

RULES = {
    "no-wall-clock":
        "no rand()/time()/chrono clocks in src/des + src/core + "
        "src/telemetry/{history,alerts} (src/des/wall_clock.* is the "
        "allowlisted monotonic seam)",
    "no-naked-new": "no naked new expressions (use make_unique/containers)",
    "counter-registry": "telemetry metrics must come from the Registry",
    "pragma-once": "headers start with #pragma once",
    "no-std-function":
        "no std::function / <functional> in src/des + src/core + "
        "src/scenario (use util::InlineFunction)",
    "no-hot-path-alloc":
        "no heap allocation in the src/core probe-cycle hot-path files "
        "(entity objects / pools / InlineFunction instead)",
    "no-string-labels":
        "no string-keyed metric lookups in src/des + src/core "
        "(intern at setup, use the *_ids overloads)",
    "annotated-locks":
        "no raw std::mutex/lock_guard/unique_lock/condition_variable in "
        "src/ (use the util::Mutex wrappers from "
        "src/util/thread_annotations.hpp)",
    "one-probe-cycle":
        "core::ProbeCycle is named only under src/core/ (one cycle "
        "owner: core::ControlPointBase)",
    "one-device":
        "MessageKind::kReply is assigned only under src/core/ (one "
        "device owner: core::BasicDevice)",
    "one-metric-owner":
        "each probemon_* family is registered from one file under src/ "
        "(one producer, one meaning)",
    "one-prefetch":
        "no __builtin_prefetch/_mm_prefetch under src/ outside "
        "src/util/prefetch.hpp (util::prefetch cannot be optimized away)",
}


def strip_noise(line: str) -> str:
    """Remove string/char literals and // comments so patterns match code."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            i += 1
            out.append(quote)
            continue
        out.append(c)
        i += 1
    return "".join(out)


def strip_comments(line: str) -> str:
    """Cut a // comment, keeping string literals intact."""
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            return line[:i]
        if c in "\"'":
            quote = c
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
        i += 1
    return line


def suppressed(line: str, rule: str) -> bool:
    m = NOLINT.search(line)
    return bool(m) and rule in m.group(1)


class Finding:
    def __init__(self, path: pathlib.Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def lint_file(path: pathlib.Path, rel: pathlib.Path) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [Finding(rel, 0, "io", str(err))]

    findings: list[Finding] = []
    parts = rel.parts
    deterministic_zone = "src" in parts and ("des" in parts or "core" in parts)
    # History/alerts take time as an argument (sample(t)/evaluate(t));
    # reading a clock there would silently fork DES and wall-clock
    # behavior. They are NOT in deterministic_zone: string-keyed
    # registry access is fine in query-path code.
    wallclock_zone = (deterministic_zone or (
        "telemetry" in parts and ("history" in parts or "alerts" in parts))
    ) and not any(rel.as_posix().endswith(e) for e in WALL_CLOCK_EXEMPT)
    callback_zone = deterministic_zone or (
        "src" in parts and "scenario" in parts)
    hot_path = "src" in parts and "core" in parts and rel.name in HOT_PATH_FILES
    registry_exempt = "telemetry" in parts
    lock_zone = "src" in parts and not rel.as_posix().endswith(
        ANNOTATED_LOCKS_EXEMPT)
    second_copy_zone = "src" in parts and "core" not in parts
    prefetch_zone = "src" in parts and not rel.as_posix().endswith(
        PREFETCH_HELPER)
    lines = text.splitlines()

    in_block_comment = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        # Crude but adequate block-comment tracking (the repo style uses
        # // comments; /* */ appears only in rare inline spots).
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                line = line[:start]
            else:
                line = line[:start] + line[end + 2:]
        code = strip_noise(line)
        if not code.strip():
            continue

        if lock_zone and not suppressed(raw, "annotated-locks"):
            if RAW_LOCKS.search(code) or LOCK_INCLUDE.match(code):
                findings.append(Finding(
                    rel, lineno, "annotated-locks",
                    "raw standard lock primitive — use the TSA-annotated "
                    "util::Mutex/MutexLock/CondVar wrappers "
                    "(src/util/thread_annotations.hpp) so clang "
                    "-Wthread-safety and the lock-order detector see it"))

        if callback_zone and not suppressed(raw, "no-std-function"):
            if STD_FUNCTION.search(code) or FUNCTIONAL_INCLUDE.match(code):
                findings.append(Finding(
                    rel, lineno, "no-std-function",
                    "std::function allocates per capture — use "
                    "util::InlineFunction on the des/core/scenario "
                    "event path"))

        if hot_path and not suppressed(raw, "no-hot-path-alloc"):
            if HOT_ALLOC.search(code):
                findings.append(Finding(
                    rel, lineno, "no-hot-path-alloc",
                    "heap allocation in a probe-cycle hot-path file — "
                    "keep state in the entity object, queued probes in "
                    "the EntityArena's pooled queue nodes, callbacks in "
                    "InlineFunction buffers"))

        if deterministic_zone and not suppressed(raw, "no-string-labels"):
            if STRING_LABELS.search(code):
                findings.append(Finding(
                    rel, lineno, "no-string-labels",
                    "string-keyed metric construction on the DES hot "
                    "path — intern names/labels at setup and use the "
                    "*_ids interned-id API"))

        if second_copy_zone and not suppressed(raw, "one-probe-cycle"):
            if PROBE_CYCLE.search(code):
                findings.append(Finding(
                    rel, lineno, "one-probe-cycle",
                    "core::ProbeCycle outside src/core — run the core "
                    "control point on the engine's des::Clock + net::Link "
                    "instead of driving the cycle a second time"))

        if second_copy_zone and not suppressed(raw, "one-device"):
            if REPLY_BUILT.search(code):
                findings.append(Finding(
                    rel, lineno, "one-device",
                    "a reply built outside src/core — run the core device "
                    "on the engine's des::Clock + net::Link instead of "
                    "answering probes a second time"))

        if prefetch_zone and not suppressed(raw, "one-prefetch"):
            if PREFETCH_INTRINSIC.search(code):
                findings.append(Finding(
                    rel, lineno, "one-prefetch",
                    "raw prefetch intrinsic — call util::prefetch "
                    "(src/util/prefetch.hpp); GCC may delete a "
                    "__builtin_prefetch whose address it loads "
                    "through two levels"))

        if wallclock_zone and not suppressed(raw, "no-wall-clock"):
            for pattern, what in WALL_CLOCK_PATTERNS:
                if pattern.search(code):
                    findings.append(Finding(
                        rel, lineno, "no-wall-clock",
                        f"{what} — this tree must stay deterministic "
                        "(caller-supplied time only)"))

        if (NAKED_NEW.search(code) and not PLACEMENT_NEW.search(code)
                and not suppressed(raw, "no-naked-new")):
            findings.append(Finding(
                rel, lineno, "no-naked-new",
                "naked new expression (use std::make_unique or a container)"))

        if (not registry_exempt and COUNTER_DIRECT.search(code)
                and not suppressed(raw, "counter-registry")):
            findings.append(Finding(
                rel, lineno, "counter-registry",
                "construct telemetry metrics via telemetry::Registry "
                "(counter()/gauge()/histogram()) so they are exported"))

    if rel.suffix in (".hpp", ".h") and not suppressed(lines[0] if lines else "",
                                                       "pragma-once"):
        for raw in lines:
            stripped = raw.strip()
            if not stripped or stripped.startswith("//"):
                continue
            if PRAGMA_ONCE.match(raw):
                break
            findings.append(Finding(
                rel, 1, "pragma-once",
                "header does not start with #pragma once"))
            break

    return findings


def metric_registrations(path: pathlib.Path, rel: pathlib.Path
                         ) -> list[tuple[str, int]]:
    """(family name, line) of each probemon_* registration in a src/ file."""
    if "src" not in rel.parts:
        return []
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError:
        return []
    code = []
    in_block_comment = False
    for raw in lines:
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                code.append("")
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                line = line[:start]
            else:
                line = line[:start] + line[end + 2:]
        code.append(strip_comments(line))
    text = "\n".join(code)
    out = []
    for m in METRIC_REGISTRATION.finditer(text):
        lineno = text.count("\n", 0, m.start(1)) + 1
        if not suppressed(lines[lineno - 1], "one-metric-owner"):
            out.append((m.group(1), lineno))
    return out


def one_metric_owner(sites: dict[str, list[tuple[pathlib.Path, int]]]
                     ) -> list[Finding]:
    """One finding per family registered from more than one file."""
    findings = []
    for name, where in sorted(sites.items()):
        files = sorted({rel for rel, _ in where}, key=str)
        if len(files) < 2:
            continue
        first = min(where, key=lambda site: (str(site[0]), site[1]))
        listed = ", ".join(
            f"{rel}:{min(line for r, line in where if r == rel)}"
            for rel in files)
        findings.append(Finding(
            first[0], first[1], "one-metric-owner",
            f"{name} is registered from {len(files)} files ({listed}) — "
            "give the family one producer and read it from there"))
    return findings


def collect_files(root: pathlib.Path, paths: list[str]) -> list[pathlib.Path]:
    if paths:
        return [pathlib.Path(p).resolve() for p in paths]
    src = root / "src"
    if not src.is_dir():
        print(f"lint.py: no src/ under {root}", file=sys.stderr)
        sys.exit(2)
    return sorted(p for p in src.rglob("*")
                  if p.suffix in (".cpp", ".hpp", ".h") and p.is_file())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="tree to lint (default: repo root)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--json", type=pathlib.Path, metavar="FILE",
                        help="additionally write findings as JSON")
    parser.add_argument("paths", nargs="*",
                        help="specific files (default: <root>/src)")
    args = parser.parse_args()

    if args.list_rules:
        for rule, doc in RULES.items():
            print(f"{rule:18} {doc}")
        return 0

    root = args.root.resolve()
    findings: list[Finding] = []
    files = collect_files(root, args.paths)
    metric_sites: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path in files:
        try:
            rel = path.relative_to(root)
        except ValueError:
            rel = path
        findings.extend(lint_file(path, rel))
        for name, line in metric_registrations(path, rel):
            metric_sites.setdefault(name, []).append((rel, line))
    findings.extend(one_metric_owner(metric_sites))

    for finding in findings:
        print(finding)
    if args.json:
        args.json.write_text(json.dumps({
            "files_scanned": len(files),
            "findings": [
                {"path": str(f.path), "line": f.line, "rule": f.rule,
                 "message": f.message}
                for f in findings
            ],
        }, indent=2) + "\n", encoding="utf-8")
    print(f"lint.py: {len(findings)} finding(s) in {len(files)} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
