#!/usr/bin/env python3
"""The PrivIM benchmark: one command for every workload, metric and check.

  python3 perfbench/run.py --workload stream-update --seed 3 --seconds 20 --trace 0
  python3 perfbench/run.py --seed 3            # every workload, untraced
                                               # then traced
  python3 perfbench/run.py --selftest          # the benchmark's own tests

Run from the repository root. The first call builds the library sources
and the benchmark program (perfbench/perfbench.cc) in Release mode under the build
directory ($CARGO_TARGET_DIR, else .bench_build). Each workload runs in a
process of its own; with --trace 1 the run is traced and reports the
per-layer metrics, and its Chrome trace (open it in Perfetto) is kept in
the build directory. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed output check
makes the exit code nonzero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def log(msg):
    print(msg, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary directory."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.log"), "w") as f:
        for cmd in (["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                     "--target", "perfbench"]):
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("build failed: %s (see %s)\n"
                                 % (" ".join(cmd), f.name))
                sys.exit(1)
    return out


def provenance(raw):
    """Where a result came from: commit or source digest, host and build."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "threads": raw["threads"],
            "isa": raw["isa"], "resolved_isa": raw["resolved_isa"],
            "PRIVIM_FORCE_ISA": raw["force_isa"],
            "build_type": raw["build_type"], "workload": raw["workload"],
            "seed": raw["seed"], "trace": raw["trace"],
            "setup_repeats": len(raw["setup_s"]),
            "pipeline_runs": len(raw["run_ms"]),
            "topk_reads": len(raw["topk_ms"]),
            "analytics_reads": len(raw["analytics_ms"]),
            "update_batches": len(raw["update_ms"]),
            "retrain_batches": len(raw["retrain_update_ms"]),
            "saturated_requests": raw["burst_requests"]}


def cpu_steal_s():
    """Seconds of CPU time the hypervisor took from this machine so far
    (the 'steal' column of /proc/stat), or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_workload(bindir, declared, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its result dict."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [os.path.join(bindir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", stem + ".raw.json"]
    if trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    started, steal_before = time.monotonic(), cpu_steal_s()
    try:
        code = subprocess.call(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s timed out\n" % workload)
        sys.exit(1)
    if code != 0:
        sys.stderr.write("%s exited with %d\n" % (workload, code))
        sys.exit(1)
    raw = benchlib.load_json(stem + ".raw.json")
    units = {d["name"]: d["unit"] for d in declared}
    if trace:
        values = benchlib.per_layer(benchlib.load_json(stem + ".trace.json"), raw)
        notes = {}
    else:
        e2e = benchlib.end_to_end(raw)
        values = {k: v[0] for k, v in e2e.items()}
        notes = {k: v[1] for k, v in e2e.items()}
    metrics = {k: {"value": v, "unit": units.get(k, "?")}
               for k, v in values.items()}
    prov = provenance(raw)
    prov["wall_s"] = round(time.monotonic() - started, 3)
    steal_after = cpu_steal_s()
    if steal_before is not None and steal_after is not None:
        prov["cpu_steal_s"] = round(steal_after - steal_before, 2)
    log("# %s seed=%d trace=%d  %s" % (workload, seed, trace, json.dumps(prov)))
    for name, m in metrics.items():
        log("  %-32s %14.6g %-6s %s" % (name, m["value"], m["unit"],
                                       notes.get(name, "")))
    if trace:
        log("  trace: %s.trace.json" % stem)
        spans = benchlib.load_spans(benchlib.load_json(stem + ".trace.json"))
        selfs = benchlib.self_times(spans)
        by_name = {}
        for s in spans:
            if "request_id" not in s["args"]:  # Overlapping request spans.
                by_name[s["name"]] = (by_name.get(s["name"], 0.0) +
                                      selfs[s["id"]])
        top = sorted(by_name.items(), key=lambda kv: -kv[1])[:8]
        log("  self time by span (ms): %s" % ", ".join(
            "%s %.1f" % kv for kv in top))
    for msg in raw["failures"]:
        log("  FAILED CHECK: %s" % msg)
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump({"provenance": prov, "notes": notes, **result}, f, indent=1)
    problems = benchlib.check_names(metrics, declared)
    if problems:
        sys.stderr.write("metric set differs from BENCHMARK.json: %s\n"
                         % "; ".join(problems))
        sys.exit(1)
    return result


def selftest():
    """The metric tests (perfbench/test_benchlib.py)."""
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    return unittest.TextTestRunner(stream=sys.stderr,
                                   verbosity=1).run(suite).wasSuccessful()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    bench = benchlib.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bindir = build()
    passed = selftest()
    if args.selftest or not passed:
        sys.exit(0 if passed else 1)

    names = [w["name"] for w in bench["workloads"]]
    workloads = [args.workload] if args.workload else names
    for w in workloads:
        if w not in names:
            sys.stderr.write("unknown workload %s (have %s)\n"
                             % (w, ", ".join(names)))
            sys.exit(2)
    traces = [args.trace] if args.trace is not None else [0, 1]
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for w in workloads:
        for t in traces:
            declared = bench["per_layer"] if t else bench["end_to_end"]
            results.append(run_workload(bindir, declared, w,
                                        args.seed, seconds, t))
    merged = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": results[-1]["metrics"] if len(results) == 1 else {
                  "%s/%s" % (w, k): v for (w, t), r in zip(
                      [(w, t) for w in workloads for t in traces], results)
                  for k, v in r["metrics"].items()}}
    print(json.dumps(merged))
    sys.exit(0 if merged["correct"] else 1)


if __name__ == "__main__":
    main()
