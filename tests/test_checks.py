"""Named check registry: outcomes, report shape, determinism, failure localization."""

import concurrent.futures
import hashlib
import json

import pytest

from catschett import checks, config, kernels, maps
from catschett.serieslab.laurent import LaurentPoly2

ENUM_CHECKS = ("thm1.2i", "thm1.2ii", "thm1.3", "thm1.4", "thm1.5", "thm2.3",
               "thm2.13", "lem2.2", "lem2.8", "lem2.10", "lem2.18", "prop2.11",
               "cor2.6", "schett-routes")

SERIES_CHECKS = ("lem3.1", "eq:ee", "eq:eo", "eq:o", "eq:G", "eq:LE",
                 "alg:gf1", "alg:gf2", "thm1.6i", "bbs")


def test_registry_contents():
    assert set(checks.CHECK_NAMES) == set(ENUM_CHECKS) | set(SERIES_CHECKS) | {"all"}


@pytest.mark.parametrize("name", ENUM_CHECKS)
def test_enumeration_checks_pass_at_reduced_size(name):
    result = checks.run_check(name, n=6)
    assert result.passed, result.detail
    assert result.counterexample is None
    assert result.first_failure is None


@pytest.mark.parametrize("name", SERIES_CHECKS)
def test_series_checks_pass_at_reduced_order(name):
    result = checks.run_check(name, order=9)
    assert result.passed, result.detail
    assert result.first_failure is None
    assert result.readings is not None


# sha256 of the lines of compact payload JSON of each series check at orders 4..12,
# recorded while every reading took its own powers of the series
READING_DIGESTS = {
    "lem3.1": "c1d3093f88552fd8193ca5c2eeeef66698c72c170f2d55f2fd44e09d6f05f37f",
    "eq:ee": "feb033bdae3409adf3cb15b87e521c5ff44c6bf2eaa1a3f358688a6c5afb063e",
    "eq:eo": "2fe3f678037653a5912af56c9ebba4a6cf11fa5096fc5b7eeb0ada288e1b5667",
    "eq:o": "296fc400ac281a3e6cb053e511260a8194c55db519f92ce69695b50eae9f16e4",
    "eq:G": "22468963437464e6ba1bd5d370de43dc2b23d53a0a47ec323dbae4dc5542bbbf",
    "eq:LE": "f5778f1f0fdba5863168a9d36e7c97ca447cb6fbbe61ab38644af5e2c9894143",
    "alg:gf1": "e85c8ddaf9d37fb86302fba22a27ea8116c658bfa34c5560caaffa8cf5f9ca08",
    "alg:gf2": "bc36eead20adeedb5ec91ffe6acb942d20fb9e43e5558176600725ee5d951577",
    "thm1.6i": "f35a15cd8a3e002a3af21b9f689217028e4b4961f0e67961b040ba4c1389468f",
    "bbs": "ea214ffb330097e12f523a4155f7ec0903db7b00a875eac8e5c2ba03d3f52f0c",
}


def test_series_readings_are_pinned():
    # every reading's pass or first failure, at every order the benchmark sweeps
    assert tuple(READING_DIGESTS) == SERIES_CHECKS
    for name, expected in READING_DIGESTS.items():
        payloads = (checks.run_check(name, order=order).payload() for order in range(4, 13))
        text = "\n".join(json.dumps(p, separators=(",", ":")) for p in payloads)
        assert hashlib.sha256(text.encode()).hexdigest() == expected, name


class _ReadRecorder(dict):
    """Check parameters that remember every key a body reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_packaged_defaults_match_the_registry():
    # the defaults name exactly the registered checks, each with the keys its body reads
    defaults = config._defaults()["checks"]
    assert sorted(defaults) == sorted(checks._CHECKS)
    for name, body in checks._CHECKS.items():
        params = _ReadRecorder({key: 3 for key in defaults[name]})
        body(params)
        assert params.read == set(defaults[name]), name


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        checks.run_check("nope")


def test_report_payload_is_deterministic():
    a = checks.run_check("thm1.2i", n=5)
    b = checks.run_check("thm1.2i", n=5)
    assert json.dumps(a.payload()) == json.dumps(b.payload())
    assert "wall_time_ms" not in a.payload()
    assert a.to_json()["wall_time_ms"] >= 0


@pytest.mark.parametrize("name, kinds", [("thm1.2i", {"mndmna231"}), ("thm1.2ii", {"mndmna231"}),
                                         ("prop2.11", {"mndmna231", "mnemnw321"})])
def test_table_checks_count_each_kind_once(monkeypatch, name, kinds):
    passes = []

    def counted(kind, count):
        def count_pass(n):
            passes.append(kind)
            return count(n)
        return count_pass

    monkeypatch.setattr(kernels, "_TABLES", {})
    monkeypatch.setattr(kernels, "_COUNTED", {k: counted(k, f) for k, f in kernels._COUNTED.items()})
    assert checks.run_check(name).passed
    assert sorted(passes) == sorted(kinds)


@pytest.mark.parametrize("name", list(checks._CHECKS))
def test_every_check_counts_each_kind_at_most_once(monkeypatch, name):
    # from a cold cache, a check that reads several sizes of a kind asks for the
    # largest first, so one counting pass fills every size it reads
    passes = []

    def counted(kind, count):
        def count_pass(n):
            passes.append(kind)
            return count(n)
        return count_pass

    monkeypatch.setattr(kernels, "_TABLES", {})
    for kind, count in list(kernels._COUNTED.items()):
        monkeypatch.setitem(kernels._COUNTED, kind, counted(kind, count))
    assert checks.run_check(name).passed
    assert len(passes) == len(set(passes)), passes


def test_series_report_names_passing_reading():
    result = checks.run_check("eq:eo", order=9)
    assert "terminal-parity variant (EO+OO)" in result.detail
    readings = {row["reading"]: row for row in result.readings}
    literal = readings["literal (EO+EE)"]
    assert literal["pass"] is False
    assert literal["first_failure"] == {
        "t_order": 5, "monomial": "x^1*y^1", "lhs": 13, "rhs": 11, "equation": "EO"}


def test_quartic_reading_localizes_literal_defect():
    result = checks.run_check("alg:gf1", order=9)
    readings = {row["reading"]: row for row in result.readings}
    literal = next(row for label, row in readings.items() if "literal" in label)
    assert literal["pass"] is False
    ff = literal["first_failure"]
    assert (ff["t_order"], ff["monomial"], ff["lhs"], ff["rhs"]) == (4, "x^3*y^1", 8, 0)


def test_sextic_reading_localizes_literal_defect():
    result = checks.run_check("alg:gf2", order=9)
    rows = result.readings
    failing = [row for row in rows if not row["pass"]]
    assert len(failing) == 2
    for row in failing:
        ff = row["first_failure"]
        assert (ff["t_order"], ff["monomial"], ff["lhs"], ff["rhs"]) == (2, "x^2*y^0", 1, 0)
    assert sum(1 for row in rows if row["pass"]) == 1


def test_exactly_one_reading_for_the_two_term_question():
    result = checks.run_check("bbs", order=9)
    assert result.passed
    assert "exactly one" in result.detail
    passing = [row for row in result.readings if row["pass"]]
    assert len(passing) == 1
    assert passing[0]["reading"] == "2t^2x"
    failing = next(row for row in result.readings if not row["pass"])
    ff = failing["first_failure"]
    assert (ff["t_order"], ff["monomial"], ff["lhs"], ff["rhs"]) == (2, "x^2*y^0", -2, 0)


def test_aggregate_runs_everything():
    result = checks.run_check("all", n=5, order=6)
    assert result.passed
    assert len(result.subresults) == len(checks.CHECK_NAMES) - 1
    names = [s.check for s in result.subresults]
    assert names == [n for n in checks.CHECK_NAMES if n != "all"]


def test_aggregate_fanout_matches_serial():
    serial = checks.run_check("all", n=4, order=5)
    fanned = checks.run_check("all", n=4, order=5, jobs=2)
    assert json.dumps(serial.payload()) == json.dumps(fanned.payload())


def test_aggregate_caps_workers_at_number_of_checks(monkeypatch):
    recorded = []

    class SerialPool:
        """Stands in for the process pool: records its size, runs in this process."""

        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def trivial(params):
        return "ok"

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(checks, "_CHECKS", {"thm1.3": trivial, "eq:G": trivial})
    assert checks.run_check("all", jobs=64).passed
    assert checks.run_check("all", jobs=2).passed
    assert recorded == [2, 2]
    assert checks.run_check("all", jobs=1).passed
    assert recorded == [2, 2]


def test_jobs_below_one_rejected():
    for jobs in (0, -5):
        with pytest.raises(ValueError, match="jobs"):
            checks.run_check("all", jobs=jobs)


def test_override_only_applies_to_matching_parameter():
    r = checks.run_check("thm1.2i", n=5, order=99)
    assert r.params == {"n": 5}
    s = checks.run_check("eq:G", n=99, order=7)
    assert s.params == {"order": 7}


def _drop(n0, i0):
    """A domain generator without its i0-th object at size n0."""
    return lambda f: (lambda n, *rest: (x for i, x in enumerate(f(n, *rest)) if (n, i) != (n0, i0)))


def _bump(kind0, n0, key):
    """stat_table counting one extra object at ``key`` in the (kind0, n0) table."""
    def wrap(f):
        def table(kind, n):
            counts = f(kind, n)
            if (kind, n) == (kind0, n0):
                counts = dict(counts)
                counts[key] = counts.get(key, 0) + 1
            return counts
        return table
    return wrap


def _add(value, match):
    """A set-valued statistic with ``value`` added wherever ``match`` holds."""
    return lambda f: (lambda x: f(x) | {value} if match(x) else f(x))


def _extra_term(route0, n0):
    """catalan_schett with one stray term on ``route0`` at size ``n0``."""
    return lambda f: (lambda n, route="trees": f(n, route) + LaurentPoly2({(9, 9): 1})
                      if (n, route) == (n0, route0) else f(n, route))


# (check, n, module, name, wrapper, detail, counterexample): one injected defect each.
# "maps" rebinds a map or a domain generator in the registry, "checks" a statistic
# or stat_table as the checks read them.
INJECTED_DEFECTS = [
    ("thm1.4", 4, "maps", "vartheta",
     lambda f: lambda t: (2, 3, 1) if f(t) == (3, 2, 1) else f(t),
     "image is not a 231-avoider of size 3", "((())())"),
    ("thm1.4", 4, "checks", "mnd", lambda f: lambda p: f(p) + (p == (2, 1, 3)),
     "marked-node count differs from mnd at n=3", "(((()))): marks 1, mnd 2"),
    ("thm1.4", 4, "maps", "plane_trees", _drop(3, 0),
     "image size wrong at n=3", "n=3: 4 images, expected 5"),
    ("thm1.5", 4, "maps", "psi_cap",
     lambda f: lambda p: (2, 3, 1) if f(p) == (3, 2, 1) else f(p),
     "image is not a 231-avoider at n=3", "3 1 2"),
    ("thm1.5", 4, "maps", "psi_cap_inv",
     lambda f: lambda q: (1, 2, 3) if f(q) == (2, 1, 3) else f(q),
     "round-trip fails at n=3", "2 1 3"),
    ("thm1.5", 4, "checks", "left_peak_values", _add(9, lambda p: p == (3, 1, 2)),
     "left-peak value set not preserved at n=3", "2 3 1: LPK [3] -> [3, 9]"),
    ("thm1.5", 4, "maps", "avoiders", _drop(3, 4),
     "image size wrong at n=3", "n=3: 4 images, expected 5"),
    ("thm1.5", 5, "checks", "stat_table", _bump("lpk321", 4, (0, 0, 0, 0)),
     "(lpk_e, lpk_o) distributions differ between classes at n=4",
     "n=4: [((0, 0), 1), ((0, 1), 3), ((1, 0), 8), ((1, 1), 1), ((2, 0), 1)] vs "
     "[((0, 0), 2), ((0, 1), 3), ((1, 0), 8), ((1, 1), 1), ((2, 0), 1)]"),
    ("thm2.3", 4, "maps", "theta", lambda f: lambda p: f((1, 2, 3)) if p == (1, 3, 2) else f(p),
     "map not injective at n=3", "1 3 2"),
    ("thm2.3", 4, "checks", "descent_set", _add(7, lambda p: p == (2, 1, 3)),
     "descent set differs from lower-walk east set at n=3", "2 1 3"),
    ("thm2.3", 4, "checks", "ascent_set", _add(7, lambda p: len(p) == 4),
     "inverse ascent set differs from upper-walk north set at n=4", "1 2 3 4"),
    ("thm2.3", 4, "maps", "avoiders", _drop(3, 1),
     "image is not all dominated walk pairs at n=3", "n=3: 4 images, 5 walk pairs"),
    ("thm2.13", 4, "maps", "phi_cap_inv",
     lambda f: lambda pair: (1, 2, 3) if f(pair) == (1, 3, 2) else f(pair),
     "round-trip fails at n=3", "1 3 2"),
    ("thm2.13", 4, "checks", "excedance_set", _add(8, lambda p: p == (2, 1, 3)),
     "excedance set differs from lower-walk east set at n=3", "2 1 3"),
    ("thm2.13", 4, "checks", "weak_excedance_set_shifted", _add(8, lambda p: p == (1, 3, 2)),
     "shifted weak excedances differ from upper-walk north set at n=3", "1 3 2"),
    ("thm2.13", 4, "maps", "avoiders", _drop(4, 7),
     "image is not all dominated walk pairs at n=4", "n=4: 13 images, 14 walk pairs"),
    ("thm2.13", 5, "checks", "stat_table", _bump("mnemnw321", 3, (0, 0)),
     "(mnd, mna o inv) on 231 differs from (mne, mnw o inv) on 321 at n=3",
     "n=3: [((0, 1), 1), ((1, 0), 1), ((1, 1), 3)] vs "
     "[((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 3)]"),
    ("lem2.2", 4, "maps", "upsilon", lambda f: lambda p: f((1, 2, 3)) if p == (1, 3, 2) else f(p),
     "map not injective at n=3", "1 3 2"),
    ("lem2.2", 4, "checks", "idr", lambda f: lambda p: f(p) + (p == (3, 1, 2)),
     "initial descending run differs from left arm at n=3", "3 1 2"),
    ("lem2.2", 4, "checks", "iar", lambda f: lambda p: f(p) + (p == (1, 3, 2, 4)),
     "inverse initial ascending run differs from right arm at n=4", "1 3 2 4"),
    ("lem2.2", 4, "maps", "avoiders", _drop(3, 2),
     "image size wrong at n=3", "n=3: 4 trees, expected 5"),
    ("lem2.8", 4, "maps", "tau", lambda f: lambda t: "ENEN" if f(t) == "EENN" else f(t),
     "map not injective at n=2", "((. .) .)"),
    ("lem2.8", 4, "maps", "tau_inv", lambda f: lambda w: f("ENEN") if w == "EENN" else f(w),
     "round-trip fails at n=2", "((. .) .)"),
    ("lem2.8", 4, "checks", "platform_multiset",
     lambda f: lambda w: f(w) + (1,) if w == "ENEENN" else f(w),
     "left-chain orders differ from platform multiset at n=3",
     "(. ((. .) .)): [1, 2] vs [1, 1, 2]"),
    ("lem2.8", 4, "maps", "binary_trees", _drop(3, 3),
     "image size wrong at n=3", "n=3: 4 paths, expected 5"),
    ("lem2.10", 4, "maps", "psi_kratt",
     lambda f: lambda p: f((1, 2, 3)) if p == (1, 3, 2) else f(p),
     "map not injective at n=3", "1 3 2"),
    ("lem2.10", 4, "checks", "descent_set", _add(5, lambda p: p == (2, 1, 4, 3)),
     "descent positions differ from long-platform penultimate easts at n=4",
     "2 1 4 3: [1, 3, 5] vs [1, 3]"),
    ("lem2.10", 4, "checks", "_platform_marks",
     lambda f: lambda w: ({1} | f(w)[0], f(w)[1]) if w == "EENENN" else f(w),
     "non-excedance positions differ from platform-final easts at n=3",
     "3 1 2: [2, 3] vs [1, 2, 3]"),
    ("lem2.10", 4, "maps", "avoiders", _drop(4, 13),
     "image size wrong at n=4", "n=4: 13 paths, expected 14"),
    ("prop2.11", 5, "checks", "stat_table", _bump("mndmna231", 4, (0, 0, 0)),
     "mnd on 231-avoiders differs from mne on 321-avoiders at n=4",
     "n=4: [(0, 2), (1, 10), (2, 3)] vs [(0, 1), (1, 10), (2, 3)]"),
    ("thm1.2i", 5, "checks", "stat_table", _bump("mndmna231", 3, (0, 1, 0)),
     "joint (mna, mnd) matrix over 231-avoiders asymmetric at n=3",
     "n=3: count(mna=0, mnd=1)=1, count(mna=1, mnd=0)=2"),
    ("thm1.2ii", 5, "checks", "stat_table", _bump("mndmna231", 4, (2, 0, 0)),
     "mnd distribution deviates from closed form at n=4", "n=4, k=2: enumerated 4, closed form 3"),
    ("thm1.2ii", 5, "checks", "stat_table", _bump("mndmna231", 4, (9, 0, 0)),
     "mnd distribution total wrong at n=4", "n=4: total 15, expected 14"),
    ("thm1.3", 4, "checks", "mnd", lambda f: lambda p: f(p) + (p == (2, 1, 3)),
     "(mnd, mna o inv) distribution differs from tree (X, Y) at n=3",
     "n=3: [((0, 1), 1), ((1, 0), 1), ((1, 1), 2), ((2, 1), 1)] vs "
     "[((0, 1), 1), ((1, 0), 1), ((1, 1), 3)]"),
    ("thm1.3", 4, "checks", "upsilon", lambda f: lambda p: f((1, 2, 3)) if p == (1, 3, 2) else f(p),
     "descending-run multiset differs from left-chain orders at n=3", "1 3 2"),
    ("thm1.3", 4, "checks", "catalan_schett", _extra_term("perm231", 3),
     "tree and 231-avoider polynomial routes disagree at n=3", None),
    ("lem2.18", 4, "checks", "idr", lambda f: lambda p: f(p) + (p == (2, 1, 3)),
     "root leaf-child criterion disagrees with idr parity at n=3",
     "(((()))): leaf child False, idr 3"),
    ("cor2.6", 4, "checks", "descent_bottoms", _add(7, lambda p: p == (2, 1, 3)),
     "inverse descent bottoms differ from descents at n=3", "2 1 3"),
    ("cor2.6", 4, "checks", "gamma_theta", lambda f: lambda p: (1, 2, 3) if p == (2, 1, 3) else f(p),
     "composite map does not preserve descents at n=3", "2 1 3"),
    ("cor2.6", 4, "checks", "gamma", lambda f: lambda b: f((1, 2, 3)) if b == (1, 3, 2) else f(b),
     "walk-triple map not injective at n=3", "1 2 3 and 1 3 2"),
    ("schett-routes", 4, "checks", "catalan_schett", _extra_term("perm321", 3),
     "route perm321 disagrees with the tree route at n=3",
     "n=3: [(1, 1, 3), (1, 3, 1), (3, 1, 1), (9, 9, 1)] vs [(1, 1, 3), (1, 3, 1), (3, 1, 1)]"),
    ("schett-routes", 4, "checks", "_FROZEN_POLYNOMIALS", lambda d: {**d, 4: {**d[4], (2, 2): 7}},
     "computed polynomial differs from the frozen table at n=4",
     "n=4: [(0, 2, 2), (0, 4, 1), (2, 0, 2), (2, 2, 8), (4, 0, 1)]"),
]


@pytest.mark.parametrize("check, n, module, name, wrap, detail, counterexample", INJECTED_DEFECTS,
                         ids=[f"{c[0]}-{c[3]}" for c in INJECTED_DEFECTS])
def test_injected_defect_is_localized(monkeypatch, check, n, module, name, wrap, detail,
                                      counterexample):
    owner = maps if module == "maps" else checks
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    result = checks.run_check(check, n=n)
    assert not result.passed
    assert (result.detail, result.counterexample) == (detail, counterexample)
