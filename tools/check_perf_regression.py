#!/usr/bin/env python3
"""Gate construction speed in bench_engine_scaling trajectories.

Inputs are JSON-lines files written by bench_engine_scaling (one object
per measurement). Only `mode == "single"` rows at the requested n count.
Each check takes the best (minimum) time per configuration — best-of
absorbs scheduler noise on shared CI runners.

Two checks:

* Baseline (two files): the build at --threads in the current run must
  not be slower than in the committed baseline by more than
  --max-regress.
* Scaling (--scaling, one file): within the current run, the whole build
  and the planarize stage at threads=2 and threads=4 must not be slower
  than at threads=1 by more than --max-regress. A thread count above the
  run's hardware_threads is skipped, with the reason printed: such a
  machine cannot show scaling.

Exit codes: 0 pass, 1 regression, 2 malformed/missing input.

Usage:
  tools/check_perf_regression.py bench/baselines/BENCH_engine.json \\
      BENCH_engine.json --n 50000 --threads 1 --max-regress 0.15
  tools/check_perf_regression.py --scaling BENCH_engine.json \\
      --n 50000 --max-regress 0.15
"""

import argparse
import json
import sys

# Lane counts the scaling check compares against threads=1.
SCALING_THREADS = (2, 4)


class InputError(Exception):
    """Malformed or missing input (exit code 2)."""


def single_rows(path: str, n: int) -> list:
    """The mode=single rows at node count n, in file order."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as err:
                    raise InputError(f"{path}: bad JSON line: {err}") from err
                if row.get("mode") == "single" and row.get("n") == n:
                    rows.append(row)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    return rows


def build_ms(row: dict) -> float:
    return row.get("wall_ms")


def planarize_ms(row: dict) -> float:
    for stage in row.get("stages", {}).get("stages", []):
        if stage.get("name") == "planarize":
            return stage.get("wall_ms")
    return None


def best(path: str, rows: list, threads: int, metric) -> float:
    """Minimum of metric over the rows at `threads`."""
    values = []
    for row in rows:
        if row.get("threads") != threads:
            continue
        value = metric(row)
        if not isinstance(value, (int, float)) or value <= 0:
            raise InputError(f"{path}: missing or non-positive {metric.__name__} row: {row}")
        values.append(value)
    if not values:
        raise InputError(f"{path}: no mode=single row with threads={threads}")
    return min(values)


def check_baseline(args) -> int:
    if len(args.files) != 2:
        raise InputError("the baseline check takes two files: baseline current")
    base_path, cur_path = args.files
    base = best(base_path, single_rows(base_path, args.n), args.threads, build_ms)
    cur = best(cur_path, single_rows(cur_path, args.n), args.threads, build_ms)
    ratio = cur / base
    limit = 1.0 + args.max_regress
    print(
        f"n={args.n} threads={args.threads}: baseline {base:.1f} ms, "
        f"current {cur:.1f} ms, ratio {ratio:.3f} (limit {limit:.2f})"
    )
    if ratio > limit:
        print(
            f"FAIL: single-thread construction regressed "
            f"{100.0 * (ratio - 1.0):.1f}% (> {100.0 * args.max_regress:.0f}% allowed)"
        )
        return 1
    if ratio < 1.0:
        print(f"OK: {100.0 * (1.0 - ratio):.1f}% faster than baseline")
    else:
        print(f"OK: within budget (+{100.0 * (ratio - 1.0):.1f}%)")
    return 0


def check_scaling(args) -> int:
    if len(args.files) != 1:
        raise InputError("the scaling check takes one file: current")
    path = args.files[0]
    rows = single_rows(path, args.n)
    limit = 1.0 + args.max_regress
    failed = False
    for threads in SCALING_THREADS:
        at = [row for row in rows if row.get("threads") == threads]
        hardware = min((row.get("hardware_threads", 0) for row in at), default=0)
        if at and hardware < threads:
            print(
                f"SKIP n={args.n} threads={threads}: hardware_threads={hardware} "
                f"< {threads}, this machine cannot show scaling"
            )
            continue
        for metric, label in ((build_ms, "build"), (planarize_ms, "planarize")):
            one = best(path, rows, 1, metric)
            many = best(path, rows, threads, metric)
            ratio = many / one
            verdict = "FAIL" if ratio > limit else "OK"
            print(
                f"{verdict} n={args.n} {label}: threads=1 {one:.1f} ms, "
                f"threads={threads} {many:.1f} ms, ratio {ratio:.3f} (limit {limit:.2f})"
            )
            failed = failed or ratio > limit
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="+", help="[baseline] current JSON-lines files")
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--threads", type=int, default=1, help="baseline check lanes")
    parser.add_argument(
        "--scaling", action="store_true", help="same-run thread scaling check"
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.15,
        help="allowed slowdown fraction (0.15 = fail beyond +15%%)",
    )
    args = parser.parse_args(argv)
    try:
        return check_scaling(args) if args.scaling else check_baseline(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
