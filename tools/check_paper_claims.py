#!/usr/bin/env python3
"""Check bench_paper's rows against the paper's claims.

bench_paper appends one JSON line per sweep point of Table I and
Figures 8-12 (`spec`, `n`, `R`, `instances`, then `<topology>.<metric>.max`
and `.avg` per series; Table I adds `<topology>.edges`). Each claim
EXPERIMENTS.md reads off those tables (E1, E3-E7) is a named check over
the rows of one spec. The seeds are fixed, so a verdict changes only
when the code or the trial count does.

The bounds some checks use come from the paper's plots: average
spanning ratios at most 1.5 (Fig. 9) and 1.55 (Fig. 11), the tops of
its bands, and maxima of 2.5-4.2, capped here at 5, since the paper's
simulator and exact deployment are not reproducible.

Exit codes: 0 every check passes, 1 a check fails, 2 malformed input or
a spec with no rows.

Usage:
  GS_BENCH_JSON=BENCH_paper.json build/bench/bench_paper
  tools/check_paper_claims.py BENCH_paper.json
"""

import argparse
import json
import sys

# Largest per-pair length stretch the figures may show: the paper's
# maxima reach 4.2.
MAX_LENGTH_STRETCH = 5.0
# LDel(ICDS') keeps ICDS' average length stretch within this factor
# (Table I: 1.23 against 1.23).
LDEL_STRETCH_FACTOR = 1.05

CHECKS = []  # (name, spec, claim, function(rows) -> list of violations)


class InputError(Exception):
    """Malformed or missing input (exit code 2)."""


def check(name, spec, claim):
    def register(fn):
        CHECKS.append((name, spec, claim, fn))
        return fn

    return register


def point(row):
    return f"n={row['n']} R={row['R']:g}"


def growth(rows, key):
    return rows[-1][key] - rows[0][key]


def spread(values):
    return max(values) - min(values)


# ---- E1: Table I -----------------------------------------------------


@check("table1.stretch_order", "table1",
       "average length and hop stretch order RNG > GG > LDel")
def table1_stretch_order(rows):
    t = rows[0]
    return [f"{m}: RNG {t[f'rng.{m}.avg']:.3f}, GG {t[f'gg.{m}.avg']:.3f}, "
            f"LDel {t[f'ldel.{m}.avg']:.3f}"
            for m in ("len", "hop")
            if not t[f"rng.{m}.avg"] > t[f"gg.{m}.avg"] > t[f"ldel.{m}.avg"]]


@check("table1.ldel_icds_sparsest_backbone", "table1",
       "LDel(ICDS) has the smallest backbone max degree and fewer edges than ICDS")
def table1_ldel_icds_sparsest_backbone(rows):
    t = rows[0]
    out = []
    lowest = min(t["cds.degree.max"], t["icds.degree.max"])
    if t["ldel_icds.degree.max"] > lowest:
        out.append(f"LDel(ICDS) max degree {t['ldel_icds.degree.max']:g} > {lowest:g}")
    if t["ldel_icds.edges"] >= t["icds.edges"]:
        out.append(f"LDel(ICDS) edges {t['ldel_icds.edges']} >= ICDS edges "
                   f"{t['icds.edges']}")
    return out


@check("table1.ldel_icds_prime_spanner", "table1",
       "LDel(ICDS') keeps ICDS' average length stretch and a small maximum")
def table1_ldel_icds_prime_spanner(rows):
    t = rows[0]
    out = []
    if t["ldel_icds_prime.len.avg"] > LDEL_STRETCH_FACTOR * t["icds_prime.len.avg"]:
        out.append(f"LDel(ICDS') {t['ldel_icds_prime.len.avg']:.3f} > "
                   f"{LDEL_STRETCH_FACTOR} x ICDS' {t['icds_prime.len.avg']:.3f}")
    if t["ldel_icds_prime.len.max"] > MAX_LENGTH_STRETCH:
        out.append(f"LDel(ICDS') max {t['ldel_icds_prime.len.max']:.3f} > "
                   f"{MAX_LENGTH_STRETCH}")
    return out


# ---- E3: Figure 8 ----------------------------------------------------


@check("fig8.primed_degree_grows_faster", "fig8",
       "from the sparsest to the densest point, each primed graph's max degree "
       "grows more than its backbone's")
def fig8_primed_degree_grows_faster(rows):
    out = []
    for topo in ("cds", "icds", "ldel_icds"):
        base = growth(rows, f"{topo}.degree.max")
        primed = growth(rows, f"{topo}_prime.degree.max")
        if primed <= base:
            out.append(f"{topo}: primed grows {primed:g}, backbone {base:g}")
    return out


# ---- E4 and E6: Figures 9 and 11 -------------------------------------


def stretch_band(rows, top):
    out = []
    for row in rows:
        for topo in ("cds_prime", "icds_prime", "ldel_icds_prime"):
            for m in ("len", "hop"):
                avg = row[f"{topo}.{m}.avg"]
                if not 1.0 <= avg <= top:
                    out.append(f"{point(row)} {topo} {m} avg {avg:.3f} outside "
                               f"[1, {top}]")
            if row[f"{topo}.len.max"] > MAX_LENGTH_STRETCH:
                out.append(f"{point(row)} {topo} len max {row[f'{topo}.len.max']:.3f} > "
                           f"{MAX_LENGTH_STRETCH}")
    return out


def stretch_order(rows):
    return [f"{point(row)}: ICDS' {row['icds_prime.len.avg']:.3f}, LDel(ICDS') "
            f"{row['ldel_icds_prime.len.avg']:.3f}, CDS' {row['cds_prime.len.avg']:.3f}"
            for row in rows
            if not row["icds_prime.len.avg"] <= row["ldel_icds_prime.len.avg"]
            <= row["cds_prime.len.avg"]]


@check("fig9.stretch_band", "fig9",
       "average spanning ratios stay in [1, 1.5] at every n, maxima at most 5")
def fig9_stretch_band(rows):
    return stretch_band(rows, 1.5)


@check("fig9.stretch_order", "fig9",
       "average length stretch orders ICDS' <= LDel(ICDS') <= CDS' at every n")
def fig9_stretch_order(rows):
    return stretch_order(rows)


@check("fig11.stretch_band", "fig11",
       "average spanning ratios stay in [1, 1.55] at every R, maxima at most 5")
def fig11_stretch_band(rows):
    return stretch_band(rows, 1.55)


@check("fig11.stretch_order", "fig11",
       "average length stretch orders ICDS' <= LDel(ICDS') <= CDS' at every R")
def fig11_stretch_order(rows):
    return stretch_order(rows)


# ---- E5 and E7: Figures 10 and 12 ------------------------------------


def icds_is_cds_plus_one(rows):
    # Every node sends exactly one RoleAnnounce between the two stages.
    return [f"{point(row)} {stat}: ICDS {row[f'icds.msg.{stat}']:.6g}, "
            f"CDS {row[f'cds.msg.{stat}']:.6g}"
            for row in rows for stat in ("max", "avg")
            if abs(row[f"icds.msg.{stat}"] - row[f"cds.msg.{stat}"] - 1.0) > 1e-9]


@check("fig10.icds_is_cds_plus_one", "fig10",
       "the ICDS stage costs every node exactly one broadcast more than the CDS")
def fig10_icds_is_cds_plus_one(rows):
    return icds_is_cds_plus_one(rows)


@check("fig10.ldel_gap_nearly_fixed", "fig10",
       "the LDel(ICDS) - CDS average cost gap varies less over n than the CDS "
       "cost itself")
def fig10_ldel_gap_nearly_fixed(rows):
    gaps = [row["ldel_icds.msg.avg"] - row["cds.msg.avg"] for row in rows]
    cds = [row["cds.msg.avg"] for row in rows]
    if spread(gaps) < spread(cds):
        return []
    return [f"gap spread {spread(gaps):.3f} >= CDS spread {spread(cds):.3f}"]


@check("fig12.icds_is_cds_plus_one", "fig12",
       "the ICDS stage costs every node exactly one broadcast more than the CDS")
def fig12_icds_is_cds_plus_one(rows):
    return icds_is_cds_plus_one(rows)


@check("fig12.ldel_icds_degree_flat", "fig12",
       "LDel(ICDS) max degree varies less over R than the ICDS max degree")
def fig12_ldel_icds_degree_flat(rows):
    ldel = [row["ldel_icds.degree.max"] for row in rows]
    icds = [row["icds.degree.max"] for row in rows]
    if spread(ldel) < spread(icds):
        return []
    return [f"LDel(ICDS) spread {spread(ldel):g} >= ICDS spread {spread(icds):g}"]


# ---- Command line ----------------------------------------------------


def group_rows(rows):
    """bench_paper's rows by spec, one per sweep point in (n, R) order; a
    point measured twice keeps its last row."""
    points = {}
    for row in rows:
        if row.get("bench") == "bench_paper":
            points[(row["spec"], row["n"], row["R"])] = row
    by_spec = {}
    for key in sorted(points):
        by_spec.setdefault(key[0], []).append(points[key])
    return by_spec


def load_rows(path):
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as err:
                    raise InputError(f"{path}:{number}: bad JSON line: {err}") from err
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    return rows


def run_checks(by_spec):
    """(name, claim, violations) per check; InputError when a spec the
    checks read has no rows or a row lacks a series."""
    results = []
    for name, spec, claim, fn in CHECKS:
        rows = by_spec.get(spec)
        if not rows:
            raise InputError(f"no bench_paper rows for spec '{spec}' (check {name})")
        try:
            results.append((name, claim, fn(rows)))
        except KeyError as err:
            raise InputError(f"spec '{spec}' rows lack {err} (check {name})") from err
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", help="JSON-lines file written by bench_paper")
    args = parser.parse_args(argv)
    try:
        results = run_checks(group_rows(load_rows(args.rows)))
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    failed = 0
    for name, claim, violations in results:
        print(f"{'FAIL' if violations else 'ok  '} {name}: {claim}")
        for violation in violations:
            print(f"       {violation}")
        failed += bool(violations)
    print(f"{len(results) - failed}/{len(results)} paper claims hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
