"""Unit tests for check_paper_claims.py.

Run: python3 -m unittest discover -s tools -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import check_paper_claims as claims

DENSITY = (20, 60, 100)
RADII = (20, 40, 60)


def row(spec, n, R, **series):
    out = {"bench": "bench_paper", "spec": spec, "n": n, "R": R, "instances": 2}
    out.update({key.replace("__", "."): value for key, value in series.items()})
    return out


def stretch(topo, len_avg, hop_avg, len_max=3.0):
    return {f"{topo}__len__avg": len_avg, f"{topo}__hop__avg": hop_avg,
            f"{topo}__len__max": len_max}


def passing_rows():
    """One row set on which every check passes, shaped like bench_paper's."""
    rows = [row("table1", 100, 60,
                rng__len__avg=1.31, gg__len__avg=1.11, ldel__len__avg=1.05,
                rng__hop__avg=3.4, gg__hop__avg=2.4, ldel__hop__avg=1.8,
                cds__degree__max=10, icds__degree__max=18, ldel_icds__degree__max=9,
                icds__edges=171, ldel_icds__edges=101,
                icds_prime__len__avg=1.22, ldel_icds_prime__len__avg=1.23,
                ldel_icds_prime__len__max=3.9)]
    for k, n in enumerate(DENSITY):
        rows.append(row("fig8", n, 60,
                        cds__degree__max=5 + k, cds_prime__degree__max=11 + 7 * k,
                        icds__degree__max=6 + 5 * k, icds_prime__degree__max=11 + 7 * k,
                        ldel_icds__degree__max=5 + 2 * k,
                        ldel_icds_prime__degree__max=11 + 7 * k))
        rows.append(row("fig9", n, 60, **stretch("cds_prime", 1.08 + 0.08 * k, 1.1),
                        **stretch("icds_prime", 1.05 + 0.07 * k, 1.05),
                        **stretch("ldel_icds_prime", 1.05 + 0.07 * k, 1.1)))
        rows.append(row("fig10", n, 60,
                        cds__msg__max=31 + 10 * k, cds__msg__avg=5.76 + 2.5 * k,
                        icds__msg__max=32 + 10 * k, icds__msg__avg=6.76 + 2.5 * k,
                        ldel_icds__msg__avg=8.71 + 2.1 * k))
    for k, R in enumerate(RADII):
        rows.append(row("fig11", 500, R, **stretch("cds_prime", 1.1 + 0.08 * k, 1.13),
                        **stretch("icds_prime", 1.06 + 0.09 * k, 1.07),
                        **stretch("ldel_icds_prime", 1.07 + 0.09 * k, 1.14)))
        rows.append(row("fig12", 500, R,
                        cds__msg__max=66 - 4 * k, cds__msg__avg=11.66 + k,
                        icds__msg__max=67 - 4 * k, icds__msg__avg=12.66 + k,
                        icds__degree__max=14 + 4 * k, ldel_icds__degree__max=8 + k))
    return rows


def first(rows, spec, n=None, R=None):
    return next(r for r in rows if r["spec"] == spec and (n is None or r["n"] == n)
                and (R is None or r["R"] == R))


def breaks(check):
    """Mutates a passing row set so exactly `check` fails."""

    def apply(rows):
        if check == "table1.stretch_order":
            first(rows, "table1")["gg.hop.avg"] = 3.5
        elif check == "table1.ldel_icds_sparsest_backbone":
            first(rows, "table1")["ldel_icds.edges"] = 171
        elif check == "table1.ldel_icds_prime_spanner":
            first(rows, "table1")["ldel_icds_prime.len.max"] = 5.2
        elif check == "fig8.primed_degree_grows_faster":
            first(rows, "fig8", n=100)["ldel_icds.degree.max"] = 25
        elif check == "fig9.stretch_band":
            first(rows, "fig9", n=60)["cds_prime.hop.avg"] = 1.51
        elif check == "fig9.stretch_order":
            first(rows, "fig9", n=20)["ldel_icds_prime.len.avg"] = 1.09
        elif check == "fig11.stretch_band":
            first(rows, "fig11", R=40)["icds_prime.len.max"] = 6.0
        elif check == "fig11.stretch_order":
            first(rows, "fig11", R=60)["icds_prime.len.avg"] = 1.26
        elif check == "fig10.icds_is_cds_plus_one":
            first(rows, "fig10", n=100)["icds.msg.avg"] += 0.5
        elif check == "fig12.icds_is_cds_plus_one":
            first(rows, "fig12", R=60)["icds.msg.max"] += 1
        elif check == "fig10.ldel_gap_nearly_fixed":
            first(rows, "fig10", n=100)["ldel_icds.msg.avg"] = 25.0
        elif check == "fig12.ldel_icds_degree_flat":
            first(rows, "fig12", R=60)["ldel_icds.degree.max"] = 30
        else:
            raise AssertionError(f"no failing row set for {check}")
        return rows

    return apply


def verdicts(rows):
    return {name: violations
            for name, _, violations in claims.run_checks(claims.group_rows(rows))}


class PaperClaimsTest(unittest.TestCase):
    def test_every_check_passes_on_the_passing_rows(self):
        for name, violations in verdicts(passing_rows()).items():
            self.assertEqual(violations, [], name)

    def test_each_failing_row_set_fails_only_its_check(self):
        names = [name for name, _, _, _ in claims.CHECKS]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            with self.subTest(check=name):
                got = verdicts(breaks(name)(passing_rows()))
                self.assertTrue(got[name], f"{name} did not fail")
                self.assertEqual([n for n, v in got.items() if v], [name])

    def test_covers_table1_and_every_figure(self):
        specs = {spec for _, spec, _, _ in claims.CHECKS}
        self.assertEqual(specs, {"table1", "fig8", "fig9", "fig10", "fig11", "fig12"})


class CommandLineTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def run_main(self, rows):
        path = os.path.join(self.dir.name, "BENCH_paper.json")
        with open(path, "w", encoding="utf-8") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = claims.main([path])
        return code, out.getvalue()

    def test_exit_codes(self):
        self.assertEqual(self.run_main(passing_rows())[0], 0)
        rows = breaks("fig10.icds_is_cds_plus_one")(passing_rows())
        code, out = self.run_main(rows)
        self.assertEqual(code, 1)
        self.assertIn("FAIL fig10.icds_is_cds_plus_one", out)

    def test_missing_spec_is_an_input_error(self):
        rows = [r for r in passing_rows() if r["spec"] != "fig11"]
        self.assertEqual(self.run_main(rows)[0], 2)

    def test_missing_series_is_an_input_error(self):
        rows = passing_rows()
        del first(rows, "fig12", R=40)["icds.degree.max"]
        self.assertEqual(self.run_main(rows)[0], 2)

    def test_a_rerun_point_keeps_its_last_row(self):
        rows = breaks("fig9.stretch_band")(passing_rows())
        rows.append(first(passing_rows(), "fig9", n=60))
        self.assertEqual(self.run_main(rows)[0], 0)

    def test_other_benches_rows_are_ignored(self):
        rows = passing_rows() + [{"bench": "engine_scaling", "mode": "single"}]
        self.assertEqual(self.run_main(rows)[0], 0)


if __name__ == "__main__":
    unittest.main()
