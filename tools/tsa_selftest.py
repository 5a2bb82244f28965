#!/usr/bin/env python3
"""Thread-safety-annotation self-test: prove the annotations still bite.

A `-Wthread-safety` clang build passing proves nothing if the
annotations have quietly rotted away (a deleted GUARDED_BY produces no
warning anywhere). This harness demonstrates, per annotation on
telemetry::Registry and runtime::MetricsCollector, that the annotation
is *load-bearing*:

  phase A  for every guarded field / REQUIRES method in the manifest,
           compile a tiny probe TU that misuses it (reads the field /
           calls the method without the lock). Each probe must FAIL
           with a thread-safety diagnostic.
  phase B  recompile the same probe with -DPROBEMON_TSA_DISABLED (all
           macros expand to nothing). Each probe must now COMPILE —
           proving phase A's failure came from the annotation, not from
           an unrelated error in the probe.
  phase C  copy the header into a shadow include dir with that one
           annotation stripped, recompile the probe against it. The
           probe must COMPILE — i.e. removing any single annotation
           makes the enforcement disappear, so a build that still
           passes -Werror=thread-safety genuinely checked it.

The probes reach private members through the PROBEMON_TSA_SELFTEST_HOOK
friend declaration (src/util/thread_annotations.hpp), active only under
-DPROBEMON_TSA_SELFTEST=1.

The manifest below must cover every PROBEMON_GUARDED_BY / REQUIRES in
the two headers; the harness counts the annotations in the source and
fails with "unprobed annotation" if someone adds a guarded field
without extending the manifest.

Usage:
  tools/tsa_selftest.py [--clang clang++] [--root DIR] [--json FILE]
Exit status: 0 all probes behaved, 1 a probe misbehaved or the manifest
misses an annotation, 2 usage error, 3 clang not found but the manifest
is complete (callers treat as a skip).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

# --- manifest ---------------------------------------------------------------
# One entry per annotation: the header it lives in, the annotated name
# (field or method), the annotation kind, and a probe body that misuses
# it. Probe bodies run inside `struct TsaSelftestProbe` with
# `using namespace probemon;` in scope and are never executed — only
# compiled. `tsa_sink` forces a by-reference use of a guarded field,
# which -Wthread-safety-reference (part of -Wthread-safety) rejects for
# any field type.

REGISTRY = "src/telemetry/registry.hpp"
COLLECTOR = "src/runtime/collector.hpp"

PROBE_PRELUDE = {
    REGISTRY: "#include \"telemetry/registry.hpp\"\n",
    COLLECTOR: "#include \"runtime/collector.hpp\"\n",
}

MANIFEST = [
    # --- telemetry::Registry ---
    (REGISTRY, "entries_", "guarded_by",
     "static void probe(telemetry::Registry& r) { tsa_sink(r.entries_); }"),
    (REGISTRY, "scan_", "guarded_by",
     "static void probe(telemetry::Registry& r) { tsa_sink(r.scan_); }"),
    (REGISTRY, "order_", "guarded_by",
     "static void probe(telemetry::Registry& r) { tsa_sink(r.order_); }"),
    (REGISTRY, "scrape_epoch_", "guarded_by",
     "static void probe(telemetry::Registry& r) {"
     " tsa_sink(r.scrape_epoch_); }"),
    (REGISTRY, "find_or_create", "requires",
     "static void probe(telemetry::Registry& r) {"
     " r.find_or_create(0, {}, 0, telemetry::MetricType::kCounter, false,"
     " false); }"),
    (REGISTRY, "sync_slot", "requires",
     "static void probe(telemetry::Registry& r,"
     " const telemetry::Registry::Entry& e) { r.sync_slot(e); }"),
    (REGISTRY, "key_order", "requires",
     "static void probe(const telemetry::Registry& r) {"
     " tsa_sink(r.key_order()); }"),
    # --- runtime::MetricsCollector ---
    (COLLECTOR, "agents_", "guarded_by",
     "static void probe(runtime::MetricsCollector& c) {"
     " tsa_sink(c.agents_); }"),
    (COLLECTOR, "reports_", "guarded_by",
     "static void probe(runtime::MetricsCollector& c) {"
     " tsa_sink(c.reports_); }"),
    (COLLECTOR, "samples_", "guarded_by",
     "static void probe(runtime::MetricsCollector& c) {"
     " tsa_sink(c.samples_); }"),
    (COLLECTOR, "now_fn_", "guarded_by",
     "static void probe(runtime::MetricsCollector& c) {"
     " tsa_sink(c.now_fn_); }"),
    (COLLECTOR, "presence_by_agent_", "guarded_by",
     "static void probe(runtime::MetricsCollector& c) {"
     " tsa_sink(c.presence_by_agent_); }"),
    (COLLECTOR, "alert_engine_", "guarded_by",
     "static void probe(runtime::MetricsCollector& c) {"
     " tsa_sink(c.alert_engine_); }"),
    (COLLECTOR, "apply_sample", "requires",
     "static void probe(runtime::MetricsCollector& c,"
     " telemetry::Registry& view, const telemetry::Sample& s) {"
     " c.apply_sample(view, s, \"a\"); }"),
    (COLLECTOR, "remove_sample", "requires",
     "static void probe(runtime::MetricsCollector& c,"
     " telemetry::Registry& view, const telemetry::Sample& s) {"
     " c.remove_sample(view, s, \"a\"); }"),
    (COLLECTOR, "observe_push", "requires",
     "static void probe(runtime::MetricsCollector& c) {"
     " c.observe_push(\"a\", 1.0); }"),
    (COLLECTOR, "export_presence", "requires",
     "static void probe(runtime::MetricsCollector& c,"
     " const runtime::MetricsCollector::Presence& p) {"
     " c.export_presence(\"a\", p); }"),
]

ANNOTATION = re.compile(r"PROBEMON_(GUARDED_BY|REQUIRES)\(")


def probe_source(header: str, body: str) -> str:
    return (
        PROBE_PRELUDE[header]
        + "namespace probemon {\n"
        + "template <class T> void tsa_sink(const T&);\n"
        + "struct TsaSelftestProbe {\n"
        + body + "\n"
        + "};\n"
        + "}  // namespace probemon\n"
    )


def strip_annotation(text: str, name: str, kind: str) -> str | None:
    """Remove the one annotation attached to `name`; None if not found."""
    if kind == "guarded_by":
        pattern = re.compile(
            r"(\b" + re.escape(name) + r")\s+PROBEMON_GUARDED_BY\(\s*\w+\s*\)")
    else:  # requires: the annotation trails the declaration's param list
        pattern = re.compile(
            r"(\b" + re.escape(name) + r"\s*\([^;{]*?\)(?:\s*const)?)"
            r"\s*PROBEMON_REQUIRES\(\s*\w+\s*\)", re.S)
    stripped, n = pattern.subn(r"\1", text, count=1)
    return stripped if n == 1 else None


def compile_probe(clang: str, root: pathlib.Path, source: str,
                  extra_flags: list[str],
                  include_dirs: list[pathlib.Path]) -> tuple[bool, str]:
    with tempfile.NamedTemporaryFile("w", suffix=".cpp", delete=False) as f:
        f.write(source)
        tu = f.name
    try:
        cmd = [clang, "-std=c++20", "-fsyntax-only",
               "-Wthread-safety", "-Werror=thread-safety",
               "-DPROBEMON_TSA_SELFTEST=1"]
        for inc in include_dirs:
            cmd += ["-I", str(inc)]
        cmd += extra_flags + [tu]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        return proc.returncode == 0, proc.stderr
    finally:
        os.unlink(tu)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clang", default=os.environ.get("CLANG_CXX",
                                                          "clang++"))
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--json", type=pathlib.Path, metavar="FILE")
    args = parser.parse_args()

    root = args.root.resolve()
    src = root / "src"
    failures: list[str] = []
    results = []

    # Coverage: every annotation in the two headers must be in the
    # manifest, or the strip phase silently stops guarding new fields.
    # Counted before the clang lookup, so a stale manifest fails on
    # clang-less hosts too.
    for header in (REGISTRY, COLLECTOR):
        text = (root / header).read_text(encoding="utf-8")
        in_source = len(ANNOTATION.findall(text))
        in_manifest = sum(1 for h, *_ in MANIFEST if h == header)
        if in_source != in_manifest:
            failures.append(
                f"{header}: {in_source} GUARDED_BY/REQUIRES annotations in "
                f"the source but {in_manifest} probes in the manifest — "
                "add a probe for the new annotation")

    clang = shutil.which(args.clang)
    if clang is None:
        for failure in failures:
            print(f"tsa_selftest.py: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"tsa_selftest.py: manifest covers all {len(MANIFEST)} "
              f"annotations; '{args.clang}' not found — the probes need "
              "clang (install it or point CLANG_CXX/--clang at one)",
              file=sys.stderr)
        return 3

    for header, name, kind, body in MANIFEST:
        source = probe_source(header, body)
        tag = f"{header}:{name}"

        ok_a, err_a = compile_probe(clang, root, source, [], [src])
        if ok_a:
            failures.append(f"{tag}: probe compiled with annotations ON — "
                            f"the {kind} annotation is not enforced")
        elif "thread-safety" not in err_a and "thread safety" not in err_a \
                and "requires holding" not in err_a:
            failures.append(f"{tag}: probe failed for a non-thread-safety "
                            f"reason:\n{err_a}")

        ok_b, err_b = compile_probe(clang, root, source,
                                    ["-DPROBEMON_TSA_DISABLED=1"], [src])
        if not ok_b:
            failures.append(f"{tag}: probe is broken — it does not compile "
                            f"even with annotations disabled:\n{err_b}")

        ok_c = None
        if ok_b:
            header_text = (root / header).read_text(encoding="utf-8")
            stripped = strip_annotation(header_text, name, kind)
            if stripped is None:
                failures.append(f"{tag}: could not locate the {kind} "
                                "annotation to strip (declaration moved?)")
            else:
                with tempfile.TemporaryDirectory() as shadow:
                    shadow_path = pathlib.Path(shadow) / \
                        pathlib.Path(header).relative_to("src")
                    shadow_path.parent.mkdir(parents=True, exist_ok=True)
                    shadow_path.write_text(stripped, encoding="utf-8")
                    ok_c, err_c = compile_probe(
                        clang, root, source, [],
                        [pathlib.Path(shadow), src])
                if not ok_c:
                    failures.append(
                        f"{tag}: probe still rejected after stripping the "
                        f"annotation — strip/probe mismatch:\n{err_c}")

        results.append({"header": header, "name": name, "kind": kind,
                        "enforced": not ok_a, "probe_valid": ok_b,
                        "strip_flips": bool(ok_c)})
        status = "OK" if not ok_a and ok_b and ok_c else "FAIL"
        print(f"  {status}  {tag} ({kind})")

    if args.json:
        args.json.write_text(json.dumps({
            "clang": clang,
            "probes": results,
            "failures": failures,
        }, indent=2) + "\n", encoding="utf-8")

    for failure in failures:
        print(f"tsa_selftest.py: {failure}", file=sys.stderr)
    print(f"tsa_selftest.py: {len(MANIFEST)} probes, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
