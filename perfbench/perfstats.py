"""Pure helpers of the benchmark: percentiles, strict JSON, span self
times, the Chrome trace format and the metric tables.

Everything here is deterministic and free of I/O so that
``test_perfstats.py`` can pin it down.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# A tail percentile needs this many samples beyond it.
MIN_BEYOND = 10


class MetricError(Exception):
    """A metric cannot be computed from the samples a run produced."""


# ---- statistics ---------------------------------------------------------


def percentile(values, q):
    """Linear-interpolated q-quantile (0 < q < 1) of ``values``.

    A tail percentile (q > 0.5) is refused unless at least MIN_BEYOND
    samples lie beyond it, i.e. n * (1 - q) >= MIN_BEYOND: a p99 needs
    1000 samples, a p95 200.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(values)
    if n == 0:
        raise MetricError("no samples")
    if q > 0.5 and n * (1.0 - q) < MIN_BEYOND - 1e-9:
        raise MetricError(
            f"p{q * 100:g} needs {math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)} samples, got {n}")
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    if not values:
        raise MetricError("no samples")
    return statistics.median(values)


def mean(values):
    if not values:
        raise MetricError("no samples")
    return math.fsum(values) / len(values)


# ---- strict JSON --------------------------------------------------------


def dumps_strict(obj):
    """JSON text of ``obj``; strings escaped, non-finite numbers refused.

    ``json.dumps`` escapes quotes, backslashes and control characters;
    allow_nan=False makes it raise ValueError on nan/inf instead of
    writing the invalid tokens ``NaN``/``Infinity``.
    """
    return json.dumps(obj, allow_nan=False, ensure_ascii=True, sort_keys=False)


# ---- spans --------------------------------------------------------------


def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Self time of every span, keyed by span id.

    A span's self time is its duration minus the part of its interval
    covered by its children (spans whose ``parent`` is its id). Children
    may nest, overlap each other, or stick out of the parent; only the
    covered part of the parent's own interval counts.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = _union_length(
            (max(c["start"], lo), min(c["end"], hi))
            for c in children.get(s["id"], [])
            if c["end"] > lo and c["start"] < hi)
        out[s["id"]] = (hi - lo) - covered
    return out


def chrome_trace(spans, metadata):
    """Chrome trace-event JSON object (complete "X" events, microseconds)."""
    events = [{
        "name": s["name"],
        "cat": s["name"].split(".", 1)[0],
        "ph": "X",
        "ts": s["start"],
        "dur": s["end"] - s["start"],
        "pid": 1,
        "tid": s["thread"],
        "args": {"id": s["id"], "parent": s["parent"], "items": s["items"]},
    } for s in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}


# ---- metric tables ------------------------------------------------------
#
# Each metric is (name, unit, Reduce): the reducer names the sample
# series (or spans) it reads and how it folds them into one number.


class Reduce:
    """One way of folding a run's samples into a metric value.

    kind is one of: median, mean, max, only (exactly one sample), pct
    (percentile q), ratio (median of series[0] / median of series[1]),
    change_pct (100 * (median of series[0] / median of series[1] - 1)),
    span_count, self_ms (median self time of the spans named series[0]).
    """

    def __init__(self, kind, *series, q=None):
        self.kind = kind
        self.series = series
        self.q = q

    def values(self, run, i=0):
        name = self.series[i]
        values = run["series"].get(name)
        if not values:
            raise MetricError(f"series {name!r} has no samples")
        return values

    def __call__(self, run):
        k = self.kind
        if k == "median":
            return median(self.values(run))
        if k == "mean":
            return mean(self.values(run))
        if k == "max":
            return max(self.values(run))
        if k == "pct":
            return percentile(self.values(run), self.q)
        if k == "only":
            values = self.values(run)
            if len(values) != 1:
                raise MetricError(
                    f"series {self.series[0]!r} should hold one sample, got {len(values)}")
            return values[0]
        if k == "ratio":
            return median(self.values(run, 0)) / median(self.values(run, 1))
        if k == "change_pct":
            return 100.0 * (median(self.values(run, 0)) / median(self.values(run, 1)) - 1.0)
        if k == "span_count":
            return float(len(run["spans"]))
        if k == "self_ms":
            selfs = self_times(run["spans"])
            return median([selfs[s["id"]] / 1000.0 for s in run["spans"]
                           if s["name"] == self.series[0]])
        raise ValueError(f"unknown reducer {k!r}")


def med(name):
    return Reduce("median", name)


def avg(name):
    return Reduce("mean", name)


def pct(name, q):
    return Reduce("pct", name, q=q)


def only(name):
    return Reduce("only", name)


END_TO_END = [
    ("setup_s", "s", med("setup_s")),
    ("peak_rss_mb", "MB", only("peak_rss_mb")),
    ("build_ms", "ms", med("build.lanes4_ms")),
    ("build_1lane_ms", "ms", med("build.lanes1_ms")),
    ("shard_build_ms", "ms", med("build.shard_ms")),
    ("visible_p50_ms", "ms", pct("churn.visible_ms", 0.50)),
    ("visible_p95_ms", "ms", pct("churn.visible_ms", 0.95)),
    ("snapshot_p99_ms", "ms", pct("churn.snapshot_ms", 0.99)),
    ("burst_updates_per_s", "1/s", med("churn.burst_updates_per_s")),
    ("repair_p50_ms", "ms", pct("chaos.repair_ms", 0.50)),
    ("repair_p95_ms", "ms", pct("chaos.repair_ms", 0.95)),
    ("rebuild_p50_ms", "ms", pct("chaos.rebuild_ms", 0.50)),
    ("packet_slots_p50", "slots", pct("traffic.slots", 0.50)),
    ("packet_slots_p75", "slots", pct("traffic.slots", 0.75)),
    ("traffic_ms", "ms", med("traffic.ms")),
]

ENGINE_STAGES = ["grid", "udg", "clustering", "connectors", "icds", "ldel", "planarize",
                 "assemble"]
SHARD_STAGES = ["partition", "udg", "clustering", "shards", "merge"]
PATCH_STAGES = ["udg", "cluster", "decompose", "connectors", "icds", "ldel", "gabriel",
                "assemble"]

PER_LAYER = (
    [(f"engine.{s}_ms", "ms", med(f"engine.{s}_ms")) for s in ENGINE_STAGES]
    + [(f"engine_1lane.{s}_ms", "ms", med(f"engine_1lane.{s}_ms")) for s in ENGINE_STAGES]
    + [(f"engine.{s}_items", "count", med(f"engine.{s}_items"))
       for s in ("connectors", "ldel", "planarize")]
    + [
        ("engine.stage_gap_ms", "ms", med("engine.stage_gap_ms")),
        ("engine.speedup", "x", Reduce("ratio", "build.lanes1_ms", "build.lanes4_ms")),
        ("geom.pred_calls", "count", med("geom.pred_calls")),
        ("geom.pred_exact_share", "ratio", med("geom.pred_exact_share")),
        ("geom.incircle_ns", "ns", med("geom.incircle_ns")),
        ("proximity.grid_build_ms", "ms", med("proximity.grid_build_ms")),
        ("proximity.grid_scan_ms", "ms", med("proximity.grid_scan_ms")),
        ("delaunay.triangulate_ms", "ms", med("delaunay.triangulate_ms")),
    ]
    + [(f"shard.{s}_ms", "ms", med(f"shard.{s}_ms")) for s in SHARD_STAGES]
    + [
        ("shard.tile_ms_max", "ms", med("shard.tile_ms_max")),
        ("shard.halo_overhead", "ratio", med("shard.halo_overhead")),
    ]
    + [(f"dynamic.{s}_patch_ms", "ms", avg(f"dynamic.{s}_patch_ms")) for s in PATCH_STAGES]
    + [
        ("dynamic.dirty_nodes_mean", "count", avg("dynamic.dirty_nodes")),
        ("dynamic.pairs_recomputed_mean", "count", avg("dynamic.pairs_recomputed")),
        ("dynamic.triangles_retested_mean", "count", avg("dynamic.triangles_retested")),
        ("dynamic.components_mean", "count", avg("dynamic.components")),
        ("dynamic.fallback_frac", "ratio", avg("dynamic.fell_back")),
        ("dynamic.component_fallback_frac", "ratio", avg("dynamic.component_fell_back")),
        ("service.enqueue_us_p95", "us", pct("service.enqueue_us", 0.95)),
        ("service.queue_wait_ms_p50", "ms", pct("service.queue_wait_ms", 0.50)),
        ("service.queue_wait_ms_p95", "ms", pct("service.queue_wait_ms", 0.95)),
        ("service.apply_publish_ms_p50", "ms", pct("service.apply_publish_ms", 0.50)),
        ("service.apply_ms_mean", "ms", only("service.apply_ms")),
        ("service.snapshot_copy_ms_p50", "ms", pct("service.snapshot_copy_ms", 0.50)),
        ("service.queue_depth_max", "count", Reduce("max", "service.queue_depth")),
        ("service.backlog_end", "count", only("service.backlog_end")),
        ("service.gen_late_ms_p95", "ms", pct("service.gen_late_ms", 0.95)),
        ("fault.translate_us_p50", "us", pct("fault.translate_us", 0.50)),
        ("fault.crashes", "count", only("fault.crashes")),
        ("fault.stale_skipped", "count", only("fault.stale_skipped")),
        ("routing.router_build_ms", "ms", med("routing.router_build_ms")),
        ("routing.route_us_p50", "us", pct("routing.route_us", 0.50)),
        ("routing.route_us_p99", "us", pct("routing.route_us", 0.99)),
        ("routing.hops_mean", "count", avg("traffic.slots")),
        ("netsim.self_ms", "ms", Reduce("self_ms", "netsim.run_simulation")),
        ("netsim.max_queue_depth", "count", med("netsim.max_queue_depth")),
        ("netsim.max_load_share", "ratio", med("netsim.max_load_share")),
        ("netsim.mean_slots", "slots", med("netsim.mean_slots")),
        ("trace.overhead_pct", "%",
         Reduce("change_pct", "trace.traffic_on_ms", "trace.traffic_off_ms")),
        ("trace.spans", "count", Reduce("span_count")),
    ]
)


def derive(run, table):
    """Every metric of ``table`` as {name: {"value": v, "unit": u}}."""
    metrics = {}
    for name, unit, reduce in table:
        try:
            value = float(reduce(run))
        except ZeroDivisionError:
            value = math.nan
        if not math.isfinite(value):
            raise MetricError(f"{name} is not finite")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# Median wall time of the driver's calibration kernel (sorting 2^18
# doubles) on the 4-core machine the bounds were set on. Re-measure it
# if the kernel ever changes.
NOMINAL_CALIBRATION_MS = 25.0
TIME_UNITS = {"s", "ms", "us", "ns"}
RATE_UNITS = {"1/s"}


def calibrate(metrics, run):
    """Timings rescaled to the nominal machine speed, and the factor.

    factor = median calibration time of this run / nominal: a run on a
    host that is 20% slow right now has factor 1.2, so its timings are
    divided by 1.2 and its rates multiplied by it. Counts, ratios and
    slots are left alone.
    """
    factor = median(run["series"].get("calibration_ms", [])) / NOMINAL_CALIBRATION_MS
    out = {}
    for name, body in metrics.items():
        value = body["value"]
        if body["unit"] in TIME_UNITS:
            value /= factor
        elif body["unit"] in RATE_UNITS:
            value *= factor
        out[name] = {"value": value, "unit": body["unit"]}
    return out, factor


def check_names(metrics, declared):
    """Raise MetricError unless ``metrics`` names exactly the ``declared``
    metrics (a list of BENCHMARK.json entries) with their units, each
    name matching NAME_RE."""
    units = {m["name"]: m["unit"] for m in declared}
    for name, body in metrics.items():
        if not NAME_RE.match(name):
            raise MetricError(f"metric name {name!r} has characters outside [A-Za-z0-9_.-]")
        if name not in units:
            raise MetricError(f"metric {name!r} is not declared in BENCHMARK.json")
        if body["unit"] != units[name]:
            raise MetricError(f"metric {name!r} has unit {body['unit']!r}, "
                              f"BENCHMARK.json says {units[name]!r}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise MetricError(f"metrics declared but not produced: {missing}")
