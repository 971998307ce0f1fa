"""Acceptance suite: exact, zero-tolerance gates over the whole library."""

import functools
import hashlib
import itertools
import json
import subprocess
import sys
import time

import pytest

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


# sha256 of json.dumps(payload()), the report without its wall times, of each
# check at its shipped bound and of the whole `verify all` report, recorded at 73a18df
CHECK_PAYLOAD_SHA256 = {
    "thm1.2i": "c13744b82e5b68e42f2f376ba6051ae2b53be6f258e5b50aed8f17a1d93a5c3b",
    "thm1.2ii": "db55a245994d835c5ac84daa9dab2c8a35801853d18089ef16a16c617ef611d7",
    "thm1.3": "e89da0320e69cd4881cc638e83c0728d7b0c49caa219ae1accd55935c27d9820",
    "thm1.4": "23b87a12c008baab77a64b055f0d4ec4f93b4a5a972a1991452595a46aed8a23",
    "thm1.5": "d63cadd4a71f7128e10b88b691d124d50e58ac45251d7da866c8529f270e7cbb",
    "thm2.3": "a0f2501a72da2e9b3ece3a425ed982659e398c6ac62494cfd9466cf896e88a51",
    "thm2.13": "85441e4b90c6ce831b462c14791585cbe645640c0267a67758a6f06b7ac5fe4d",
    "lem2.2": "28ff4d2ec40e38d4a8935615b7ef44ffbebc19c6f7e48096b6f59c6d1f96ecad",
    "lem2.8": "f8bd598e31c0f0f45c20afa2048b336410e4af23187bcb74dc109db721bad68d",
    "lem2.10": "a7343c7e70218cd46b2442d800d3444033c304401f4b723b4d551fc561d21d9e",
    "lem2.18": "96eee43ed16dc606d2f1fc44588b175a8a1f9a45cfb146f2de6e596df4414eb8",
    "prop2.11": "4d52073309770d149d5d820addf308a621b50f646dc02931610d80be388a1837",
    "cor2.6": "126d0fe6918af6a28b31bbed318f1176ef87cec260083c696f7a303a7d312ccd",
    "lem3.1": "54177c9d65f1e373d3ad1fccef86f2ae41633b4bc611264a9f599f264cc5b699",
    "eq:ee": "564fec086ae5f4a90fdbb7d6c45d3478b887406a977600f97669c4321a0255c4",
    "eq:eo": "93418b19ff9a3b666823aec21aafca27631b6d828eb1a077e3f1951d66e2ecf6",
    "eq:o": "a455c3ce8e8a88c25b022ded8bd2f4e9d5714d79722508a4354b47b171347e94",
    "eq:G": "d9c416a199920288b1f16e6d5ad8d5641f2b30c37dc986b5a025d88ac23c2728",
    "eq:LE": "4f36ea859d62260568fe1d1867557d60fec678e5346fca644a394d86ed54b950",
    "alg:gf1": "c2f0bc71e0eb92ff4f1878c2254404c4daa7bd113cf0391c7b1dec6a289b90f5",
    "alg:gf2": "8e7b55fcb4069118a370d7d24e66ee45fd19a52a74f73c2319eeea3a92679b66",
    "thm1.6i": "851d8938217f19ce3dcee636c43d0784170ef0221d5be1c5cfd06620ca4b954f",
    "bbs": "45d35a2acc16abde7220c7fa3bd808ba38d8355d69a921de2a94b2f1085b2a7f",
    "schett-routes": "1e14b5da86a0b6b2c67f7980170397788856e3b21e12dc859185d5f62d9db8f5",
    "all": "f17bad84d06cedd8438e74028b18cedda27a3b7eef7f7331db5f0e7b5c4c66b6",
}


@pytest.mark.parametrize("name", CHECK_PAYLOAD_SHA256)
def test_shipped_check_payload_is_pinned(name):
    text = json.dumps(shipped_run(name).payload())
    assert hashlib.sha256(text.encode()).hexdigest() == CHECK_PAYLOAD_SHA256[name]
