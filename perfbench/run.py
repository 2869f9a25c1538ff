#!/usr/bin/env python3
"""End-to-end benchmark of the geometric-spanner library.

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 40 --trace 0

Builds the C++ driver from source (``perfbench/CMakeLists.txt``, into
``.bench_build/perfbench``), runs one workload with inputs drawn from
--seed, checks every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The line before it is the same run as a
stamped row (commit, compiler, flags, threads, lanes, seed, sample
counts), also appended to ``.bench_build/perfbench/results.jsonl``. A
traced run writes its spans as a Chrome trace-event file next to it.
Exits non-zero when the build fails, a check fails, or the open loop
fell behind.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

sys.path.insert(0, str(HERE))
import perfstats  # noqa: E402

RUN_LIMIT_S = 170.0  # one measured run, after the build
BUILD_LIMIT_S = 850.0


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_driver", "-j", jobs])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=max(1.0, deadline - time.monotonic()))
        if result.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def source_digest():
    """sha256 over the library and benchmark sources, so a row names the
    code it measured even where no git metadata is available."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parse_records(text):
    """The driver's tab-separated record stream -> run dict."""
    run = {"meta": {}, "series": {}, "counts": {}, "spans": [], "invalid": []}
    for line in text.splitlines():
        fields = line.split("\t")
        kind = fields[0]
        if kind == "sample":
            value = float(fields[2])
            if value != value or value in (float("inf"), float("-inf")):
                raise perfstats.MetricError(f"non-finite sample in {fields[1]}")
            run["series"].setdefault(fields[1], []).append(value)
        elif kind == "meta":
            run["meta"][fields[1]] = fields[2]
        elif kind == "count":
            run["counts"][fields[1]] = [int(fields[2]), int(fields[3])]
        elif kind == "span":
            run["spans"].append({
                "id": int(fields[1]), "parent": int(fields[2]), "thread": int(fields[3]),
                "start": float(fields[4]), "end": float(fields[5]), "items": int(fields[6]),
                "name": fields[7]})
        elif kind == "invalid":
            run["invalid"].append(fields[1])
        else:
            raise perfstats.MetricError(f"unknown record {kind!r}")
    return run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    try:
        build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(e)
        return 1
    source = source_digest()
    started = time.monotonic()  # the build may take longer; a run may not

    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return 1

    errors = []
    try:
        run = parse_records(proc.stdout)
    except (perfstats.MetricError, ValueError, IndexError) as e:
        log(f"unreadable driver output: {e}")
        return 1
    table = perfstats.PER_LAYER if args.trace else perfstats.END_TO_END
    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    raw, metrics, factor = {}, {}, None
    try:
        raw = perfstats.derive(run, table)
        perfstats.check_names(raw, declared_metrics)
        metrics, factor = perfstats.calibrate(raw, run)
    except perfstats.MetricError as e:
        errors.append(str(e))
    attempted = sum(a for a, _ in run["counts"].values())
    failed = sum(f for _, f in run["counts"].values())
    errors += run["invalid"]
    errors += [f"{k}: {v}" for k, v in run["meta"].items() if k.endswith("_error")]
    for path in ("build", "churn", "chaos", "traffic"):
        if path not in run["counts"]:
            errors.append(f"no output checks reported for the {path} path")
    correct = not errors and failed == 0 and attempted > 0

    row = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source,
        **{k: v for k, v in run["meta"].items() if k not in ("workload", "seed", "seconds", "trace")},
        "checks": run["counts"],
        "samples": {k: len(v) for k, v in sorted(run["series"].items())},
        "errors": errors,
        "calibration_factor": factor,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "raw_metrics": {k: v["value"] for k, v in raw.items()},
    }
    if args.trace:
        trace_path = BUILD / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(perfstats.dumps_strict(perfstats.chrome_trace(run["spans"], {
            "workload": args.workload, "seed": args.seed, "source_sha256": source})))
        row["trace_file"] = str(trace_path.relative_to(ROOT))
    row_text = perfstats.dumps_strict(row)
    with open(BUILD / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(row_text + "\n")
    for e in errors:
        log(e)

    print(row_text)
    print(perfstats.dumps_strict({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted > 0 else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
