"""Acceptance suite: exact, zero-tolerance gates over the whole library."""

import functools
import itertools
import subprocess
import sys
import time

from catschett.bijections import fz_history, fz_history_inv
from catschett.checks import run_check
from catschett.objects.paths import laguerre_histories
from catschett.objects.permutations import (all_permutations, avoiders, catalan,
                                            refined_catalan)
from catschett.schett import catalan_schett
from catschett.statistics import mnd

C6_TERMS = {(6, 0): 1, (4, 2): 27, (2, 4): 27, (0, 6): 1,
            (4, 0): 8, (2, 2): 54, (0, 4): 8, (2, 0): 3, (0, 2): 3}


def reading_map(result):
    return {row["reading"]: row for row in result.readings}


# thm1.5 and thm2.13 are both a transport suite and an equidistribution identity;
# the two tests below share one run of each at the shipped bounds
shipped_run = functools.cache(run_check)


def test_catalan_counts_six_patterns_under_ten_seconds():
    start = time.perf_counter()
    for pattern in itertools.permutations((1, 2, 3)):
        for n in range(1, 11):
            assert sum(1 for _ in avoiders(n, pattern)) == catalan(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"six patterns, n <= 10: every count equals C_n ({elapsed:.2f}s)")


def test_refined_catalan_distribution():
    spot = sum(1 for p in avoiders(3, (2, 3, 1)) if mnd(p) == 1)
    assert spot == 4
    assert refined_catalan(3, 1) == 4
    result = run_check("thm1.2ii")
    assert result.params["n"] == 9
    assert result.passed, result.detail
    print(f"thm1.2ii: {result.detail}")


def test_joint_matrix_symmetry():
    result = run_check("thm1.2i")
    assert result.params["n"] == 9
    assert result.passed, result.detail
    print(f"thm1.2i: {result.detail}")


def test_polynomial_routes_agree_and_match_frozen_table():
    result = run_check("schett-routes")
    assert result.params["n"] == 8
    assert result.passed, result.detail
    assert catalan_schett(6).terms == C6_TERMS
    print(f"schett-routes: {result.detail}")


BIJECTION_SUITES = (("thm1.3", {"n": 9}), ("thm1.4", {"n": 8}),
                    ("thm1.5", {"n": 9}), ("thm2.3", {"n": 9}),
                    ("thm2.13", {"n": 9}), ("lem2.2", {"n": 9}),
                    ("lem2.8", {"n": 9}), ("lem2.10", {"n": 10}),
                    ("lem2.18", {"n": 8}), ("cor2.6", {"n": 8, "baxter_n": 7}))


def test_bijection_suites_at_shipped_bounds():
    for name, bounds in BIJECTION_SUITES:
        result = shipped_run(name)
        for key, value in bounds.items():
            assert result.params[key] == value, (name, result.params)
        assert result.passed, (name, result.detail)
        assert result.wall_time_ms < 60_000.0, (name, result.wall_time_ms)
    for n in range(8):
        images = set()
        for p in all_permutations(n):
            history = fz_history(p)
            assert fz_history_inv(*history) == p
            images.add(history)
        assert len(images) == sum(1 for _ in laguerre_histories(n))
    print("ten transport suites pass at shipped bounds; weighted-path coding "
          "is a bijection on all of S_n for n <= 7")


def test_equidistribution_identities():
    for name in ("prop2.11", "thm2.13", "thm1.5"):
        result = shipped_run(name)
        assert result.params["n"] == 9
        assert result.passed, (name, result.detail)
    print("prop2.11, thm2.13, thm1.5: exact joint identities for n <= 9")


def test_series_systems_at_order_twelve():
    for name in ("lem3.1", "eq:ee", "eq:eo", "eq:o", "eq:G", "eq:LE"):
        result = run_check(name)
        assert result.params["order"] == 12
        assert result.passed, (name, result.detail)
        if name == "eq:eo":
            assert result.detail == ("passing reading: terminal-parity "
                                     "variant (EO+OO)")
    print("lem3.1, eq:ee, eq:eo, eq:o, eq:G, eq:LE: residuals vanish mod t^13")


def test_algebraic_systems_pass_and_failures_are_localized():
    gf1 = run_check("alg:gf1")
    assert gf1.params["order"] == 12 and gf1.passed
    assert gf1.detail == "passing reading: alpha2 minus 8t^2xy"
    assert reading_map(gf1)["literal"]["first_failure"] == {
        "t_order": 4, "monomial": "x^3*y^1", "lhs": 8, "rhs": 0,
        "equation": "residual"}

    quartic = run_check("thm1.6i")
    assert quartic.params["order"] == 12 and quartic.passed
    assert reading_map(quartic)["literal"]["pass"] is True

    gf2 = run_check("alg:gf2")
    assert gf2.params["order"] == 12 and gf2.passed
    assert gf2.detail == "passing reading: beta1 t^10 minus x^2t"
    for label in ("beta1 t^11 (literal)", "beta1 t^10"):
        assert reading_map(gf2)[label]["first_failure"] == {
            "t_order": 2, "monomial": "x^2*y^0", "lhs": 1, "rhs": 0,
            "equation": "residual"}

    bbs = run_check("bbs")
    assert bbs.params["order"] == 12 and bbs.passed
    assert bbs.detail == "exactly one reading passes: 2t^2x"
    assert reading_map(bbs)["2tx"]["first_failure"] == {
        "t_order": 2, "monomial": "x^2*y^0", "lhs": -2, "rhs": 0,
        "equation": "residual"}

    eo = run_check("eq:eo")
    assert reading_map(eo)["literal (EO+EE)"]["first_failure"] == {
        "t_order": 5, "monomial": "x^1*y^1", "lhs": 13, "rhs": 11,
        "equation": "EO"}
    print("alg:gf1, thm1.6i, alg:gf2 pass; bbs passes under exactly one "
          "reading; every literal failure is pinned to its first t-order "
          "and monomial")


def test_cli_emits_mna_distribution_with_catalan_row_sums():
    out = subprocess.run([sys.executable, "-m", "catschett.cli", "series",
                          "--table", "mna", "--n", "12", "--format", "csv"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    rows = out.stdout.splitlines()
    assert len(rows) == 13 and rows[0].startswith("n,")
    assert [int(line.split(",", 1)[0]) for line in rows[1:]] == list(range(1, 13))
    for line in rows[1:]:
        cells = [int(tok) for tok in line.split(",")]
        assert sum(cells[1:]) == catalan(cells[0])
    print("CLI mna table, n <= 12: twelve rows, each summing to C_n")
