"""Metric arithmetic of the PrivIM benchmark: percentiles, end-to-end
metrics from a run's raw samples, and per-layer metrics from a Chrome
trace-event file. Pure functions; run.py does I/O.

Every end-to-end timing is CPU time of the benchmark process (see
perfbench/perfbench.cc): on a shared virtual machine it excludes the time
the hypervisor gave the CPUs to other guests, which wall-clock timings
cannot.
"""

import json
import math
import statistics

MIN_BEYOND = 10  # Samples required beyond a reported percentile.

LAYERS = {"graph", "sampling", "core", "dp", "nn", "tensor", "im",
          "runtime", "shard", "serve", "stream"}


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(n, nominal):
    """Highest percentile <= nominal with at least MIN_BEYOND of n samples
    beyond it; never below the median."""
    if n <= 0:
        return None
    return max(50.0, min(float(nominal), 100.0 * (1.0 - MIN_BEYOND / n)))


def tail(values, nominal):
    """(value, percentile used) of the supported tail percentile."""
    p = supported_percentile(len(values), nominal)
    if p is None:
        return None, None
    return percentile(values, p), p


def end_to_end(raw):
    """Every end-to-end metric from one untraced run's raw samples.
    Returns {name: (value, note)}; the note states n and the percentile."""
    out = {}

    def tail_metric(name, values, nominal, what):
        value, p = tail(values, nominal)
        out[name] = (value, "n=%d %s p%.4g" % (len(values), what, p))

    out["setup_s"] = (statistics.median(raw["setup_s"]),
                      "median of %d setups" % len(raw["setup_s"]))
    out["peak_rss_mb"] = (raw["peak_rss_mb"], "process high-water mark")
    runs = raw["run_ms"]
    out["runs_per_cpu_s"] = (1e3 * len(runs) / sum(runs),
                             "%d runs of %d cases" % (
                                 len(runs), len(set(raw["run_case"]))))
    tail_metric("run_cpu_p50_ms", runs, 50, "runs")
    tail_metric("run_cpu_p90_ms", runs, 90, "runs")
    out["coverage_pct"] = (statistics.fmean(raw["coverage_pct"]),
                           "mean of %d runs" % len(raw["coverage_pct"]))
    tail_metric("topk_cpu_p50_ms", raw["topk_ms"], 50, "engine reads")
    tail_metric("topk_cpu_p90_ms", raw["topk_ms"], 90, "engine reads")
    tail_metric("analytics_cpu_p50_ms", raw["analytics_ms"], 50,
                "engine reads")
    tail_metric("analytics_cpu_p90_ms", raw["analytics_ms"], 90,
                "engine reads")
    out["mix_cpu_ms"] = (1e3 * raw["burst_cpu_s"] / raw["burst_requests"],
                         "%d requests, server saturated"
                         % raw["burst_requests"])
    tail_metric("update_cpu_ms", raw["update_ms"], 50, "batches")
    tail_metric("retrain_update_cpu_ms", raw["retrain_update_ms"], 50,
                "retraining batches")
    return out


# --------------------------------------------------------------------------
# Trace analysis.

def load_spans(trace):
    """Complete ('X') events of a Chrome trace as dicts with start/end in
    ms, id, parent, name, cat and args."""
    spans = []
    for e in trace["traceEvents"]:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        start = e["ts"] / 1e3
        spans.append({"name": e["name"], "cat": e.get("cat", ""),
                      "start": start, "end": start + e["dur"] / 1e3,
                      "id": args.get("span_id", 0),
                      "parent": args.get("parent_id", 0), "args": args})
    return spans


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """span id -> duration minus the part its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], []) if c["end"] > s["start"]
            and c["start"] < s["end"])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def uncovered_pct(spans):
    """Share of the phase spans' wall time covered by no layer span."""
    phases = [s for s in spans if s["name"].startswith("phase.")]
    layer = [(s["start"], s["end"]) for s in spans if s["cat"] in LAYERS]
    wall = sum(p["end"] - p["start"] for p in phases)
    if wall <= 0:
        return 0.0
    covered = 0.0
    for p in phases:
        covered += union_length(
            (max(s, p["start"]), min(e, p["end"])) for s, e in layer
            if e > p["start"] and s < p["end"])
    return 100.0 * (wall - covered) / wall


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(trace, raw):
    """Every per-layer metric from a traced run. Metrics of a layer the
    workload does not exercise read 0."""
    spans = load_spans(trace)
    other = trace.get("otherData", {})
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name.get(name, []))

    m = {}
    m["graph.prepare_ms"] = total("graph.prepare")

    # Pipeline runs: serial runs carry telemetry on core.finish, sharded
    # runs on shard.run.
    finishes = by_name.get("core.finish", [])
    sharded = by_name.get("shard.run", [])
    tele = [s["args"] for s in finishes + sharded]
    runs = len(tele)

    def per_run(key):
        return sum(a.get(key, 0) for a in tele) / runs if runs else 0.0

    extract = total("sampling.extract") + sum(
        a.get("shard_extract_ms", 0) for a in (s["args"] for s in sharded))
    m["sampling.extract_ms"] = extract / runs if runs else 0.0
    acc = sum(a.get("walks_accepted", 0) for a in tele)
    rej = sum(a.get("walks_rejected", 0) for a in tele)
    m["sampling.accept_ratio"] = acc / (acc + rej) if acc + rej else 0.0
    m["sampling.dead_end_restarts"] = per_run("dead_end_restarts")
    m["train.busy_ms"] = per_run("train_busy_ms")
    m["train.iterations"] = per_run("train_iterations")
    clip_n = sum(a.get("clip_fraction_count", 0) for a in tele)
    m["train.clip_fraction"] = (sum(a.get("clip_fraction_sum", 0)
                                    for a in tele) / clip_n if clip_n else 0.0)
    finish_ms = sum(dur(s) for s in finishes) + sum(
        s["args"].get("shard_finish_ms", 0) for s in sharded)
    m["finish.other_ms"] = ((finish_ms - sum(a.get("train_busy_ms", 0) +
                                             a.get("oracle_ms", 0)
                                             for a in tele)) / runs
                            if runs else 0.0)
    m["im.oracle_ms"] = per_run("oracle_ms")
    m["im.oracle_calls"] = per_run("oracle_calls")
    m["runtime.parallel_for_ms"] = per_run("parallel_for_ms")
    m["runtime.tasks_executed"] = per_run("tasks_executed")

    shard_args = [s["args"] for s in sharded]
    n_sh = len(shard_args)

    def per_shard_run(key):
        return sum(a.get(key, 0) for a in shard_args) / n_sh if n_sh else 0.0

    m["shard.extract_ms"] = per_shard_run("shard_extract_ms")
    m["shard.finish_ms"] = per_shard_run("shard_finish_ms")
    m["shard.wall_ms"] = per_shard_run("shard_wall_ms")
    m["shard.stage_sum_ms"] = per_shard_run("shard_stage_sum_ms")
    cut = sum(a.get("cut_arcs", 0) for a in shard_args)
    intra = sum(a.get("intra_arcs", 0) for a in shard_args)
    m["shard.cut_arc_ratio"] = cut / (cut + intra) if cut + intra else 0.0

    # Serving: warm single-thread engine CPU times per template class,
    # and the server's own mean latency (queue wait + service) per kind
    # minus the mean engine time of that kind's templates.
    engine = {}
    for s in by_name.get("serve.engine", []):
        engine.setdefault(s["args"]["class"], []).append(s["args"]["engine_ms"])
    for cls in ("topk", "exact", "mc", "sketch"):
        m["serve.engine_%s_ms" % cls] = _median(engine.get(cls, []))
    stats = other.get("serve_stats", {})

    def mean_latency_ms(*keys):
        count = sum(stats.get(k + "_count", 0) for k in keys)
        return (1e3 * sum(stats.get(k + "_sum", 0) for k in keys) / count
                if count else None)

    analytics_engine = engine.get("exact", []) + engine.get("mc", []) + \
        engine.get("sketch", [])
    for kind, keys, times in (
            ("topk", ("latency_topk_s",), engine.get("topk", [])),
            ("analytics", ("latency_spread_s", "latency_marginal_s"),
             analytics_engine)):
        latency = mean_latency_ms(*keys)
        m["serve.queue_wait_%s_ms" % kind] = (
            latency - _mean(times) if latency is not None and times else 0.0)
    m["serve.batch_size_mean"] = (stats["batch_sum"] / stats["batch_count"]
                                  if stats.get("batch_count") else 0.0)
    m["serve.rejected"] = stats.get("rejected", 0)
    m["serve.touched_nodes_per_query"] = (
        stats["touched_nodes"] / stats["completed"]
        if stats.get("completed") else 0.0)
    m["serve.snapshot_build_ms"] = _median(
        [dur(s) for s in by_name.get("serve.snapshot_build", [])])
    m["serve.swap_ms"] = _median([dur(s) for s in by_name.get("serve.swap", [])])

    applies = by_name.get("stream.apply", [])
    m["stream.apply_ms"] = _median(
        [dur(s) for s in applies if not s["args"]["retrained"]])
    m["stream.retrain_apply_ms"] = _median(
        [dur(s) for s in applies if s["args"]["retrained"]])
    sets = sum(s["args"]["sketch_sets"] for s in applies)
    m["stream.repair_ratio"] = (sum(s["args"]["repaired_sets"]
                                    for s in applies) / sets if sets else 0.0)
    m["stream.changed_in_rows"] = _mean(
        [s["args"]["changed_in_rows"] for s in applies])
    m["stream.snapshot_ms"] = _median(
        [dur(s) for s in by_name.get("stream.snapshot", [])])

    m["trace.uncovered_pct"] = uncovered_pct(spans)
    base = raw.get("untraced_op_ms", 0.0)
    m["trace.overhead_pct"] = (100.0 * (raw["traced_op_ms"] / base - 1.0)
                               if base > 0 else 0.0)
    return m


def check_names(metrics, declared):
    """Problems with a printed metric set against BENCHMARK.json's
    declared [{name, unit}] list: missing, extra or unit mismatch."""
    problems = []
    want = {d["name"]: d["unit"] for d in declared}
    for name, unit in want.items():
        if name not in metrics:
            problems.append("missing metric " + name)
        elif metrics[name]["unit"] != unit:
            problems.append("unit of %s is %s, declared %s"
                            % (name, metrics[name]["unit"], unit))
    for name in metrics:
        if name not in want:
            problems.append("undeclared metric " + name)
    return problems


def load_json(path):
    with open(path) as f:
        return json.load(f)
