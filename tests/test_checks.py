"""Named check registry: outcomes, report shape, determinism, failure localization."""

import json

import pytest

from catschett import checks

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


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        checks.run_check("nope")


def test_report_payload_is_deterministic():
    a = checks.run_check("thm1.2i", n=5)
    b = checks.run_check("thm1.2i", n=5)
    assert json.dumps(a.payload()) == json.dumps(b.payload())
    assert "wall_time_ms" not in a.payload()
    assert a.to_json()["wall_time_ms"] >= 0


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
        return checks.CheckResult("trivial", params, True, "ok")

    monkeypatch.setattr(checks, "ProcessPoolExecutor", SerialPool)
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
