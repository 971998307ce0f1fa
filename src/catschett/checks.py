"""Named verification checks: exhaustive suites at small sizes plus series residuals."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from catschett import config
from catschett.bijections import gamma, gamma_theta, upsilon, vartheta
from catschett.kernels import marginal, stat_table
from catschett.maps import transport_map
from catschett.objects.paths import (
    hor_set,
    platform_multiset,
    ver_set,
    walk_pairs,
)
from catschett.objects.permutations import (
    avoiders,
    avoids,
    baxter_permutations,
    catalan,
    inverse,
    refined_catalan,
    serialize_permutation,
)
from catschett.objects.trees import (
    left_arm,
    left_chain_orders,
    plane_trees,
    right_arm,
    right_chain_orders,
    serialize_plane_tree,
)
from catschett.schett import ROUTES, catalan_schett
from catschett.serieslab import residuals
from catschett.serieslab.laurent import LaurentPoly2
from catschett.statistics import (
    ascending_run_multiset,
    ascent_set,
    descending_run_multiset,
    descent_bottoms,
    descent_set,
    excedance_set,
    iar,
    idr,
    left_peak_values,
    mark_count,
    mna,
    mnd,
    modified_descent_tops,
    weak_excedance_set_shifted,
)


@dataclass
class CheckResult:
    """Outcome of one named check, serializable to a deterministic report."""

    check: str
    params: dict
    passed: bool
    detail: str
    counterexample: str | None = None
    first_failure: dict | None = None
    readings: list[dict] | None = None
    subresults: list["CheckResult"] | None = None
    wall_time_ms: float = 0.0

    def payload(self) -> dict:
        """Report body without timing; byte-identical across repeated runs."""
        d: dict = {"check": self.check}
        d.update(sorted(self.params.items()))
        d["pass"] = self.passed
        d["detail"] = self.detail
        d["counterexample"] = self.counterexample
        d["first_failure"] = self.first_failure
        if self.readings is not None:
            d["readings"] = self.readings
        if self.subresults is not None:
            d["checks"] = [s.payload() for s in self.subresults]
        return d

    def to_json(self) -> dict:
        d = self.payload()
        if self.subresults is not None:
            d["checks"] = [s.to_json() for s in self.subresults]
        d["wall_time_ms"] = round(self.wall_time_ms, 3)
        return d


class Failed(Exception):
    """A check's FAIL verdict, raised by its body; ``run_check`` turns it into the report.

    A series check also carries its first failing coefficient and every reading.
    """

    def __init__(self, detail: str, counterexample: str | None = None, *,
                 first_failure: dict | None = None, readings: list[dict] | None = None):
        super().__init__(detail)
        self.detail = detail
        self.counterexample = counterexample
        self.first_failure = first_failure
        self.readings = readings


def _equidistributed(nmax: int, what: str, left: tuple, right: tuple) -> None:
    """Raise Failed at the first size n <= nmax where two (kind, key) marginals differ."""
    (lkind, lkey), (rkind, rkey) = left, right
    stat_table(lkind, nmax)  # the largest size first: one counting pass fills the rest
    stat_table(rkind, nmax)
    for n in range(nmax + 1):
        lhs = marginal(stat_table(lkind, n), lkey)
        rhs = marginal(stat_table(rkind, n), rkey)
        if lhs != rhs:
            raise Failed(f"{what} at n={n}",
                         f"n={n}: {sorted(lhs.items())} vs {sorted(rhs.items())}")


def _transport(name: str, nmax: int, carries, *, start: int = 0,
               member=None, noun: str = "images", codomain=None) -> None:
    """Run the registered map ``name`` over its domain for sizes start..nmax.

    Per object, in order: ``member(y, n)`` (a failure detail or None), injectivity,
    the round trip, then ``carries(x, y)`` (None, or a (detail, note) pair for a
    statistic the map does not carry).  Per size, the image must have Catalan many
    elements (counted as ``noun``), or, when ``codomain`` is given, equal the whole
    of ``codomain(n)``, the dominated walk pairs.
    Raises Failed at the first failure, with the domain object rendered as counterexample.
    """
    tmap = transport_map(name)
    forward, back, render = tmap.forward, tmap.inverse, tmap.render_domain
    for n in range(start, nmax + 1):
        image: set = set()
        for x in tmap.domain(n):
            y = forward(x)
            if member is not None:
                outside = member(y, n)
                if outside is not None:
                    raise Failed(outside, render(x))
            if y in image:
                raise Failed(f"map not injective at n={n}", render(x))
            image.add(y)
            if back(y) != x:
                raise Failed(f"round-trip fails at n={n}", render(x))
            lost = carries(x, y)
            if lost is not None:
                detail, note = lost
                raise Failed(f"{detail} at n={n}", f"{render(x)}: {note}" if note else render(x))
        if codomain is not None:
            if image != set(codomain(n)):
                raise Failed(f"image is not all dominated walk pairs at n={n}",
                             f"n={n}: {len(image)} images, "
                             f"{sum(1 for _ in codomain(n))} walk pairs")
        elif len(image) != catalan(n):
            raise Failed(f"image size wrong at n={n}",
                         f"n={n}: {len(image)} {noun}, expected {catalan(n)}")


def _check_thm12i(params: dict) -> str:
    nmax = params["n"]
    stat_table("mndmna231", nmax)  # the largest size first: one counting pass fills the rest
    for n in range(nmax + 1):
        counts = marginal(stat_table("mndmna231", n), itemgetter(1, 0))
        for (a, d), c in sorted(counts.items()):
            if counts.get((d, a), 0) != c:
                raise Failed(
                    f"joint (mna, mnd) matrix over 231-avoiders asymmetric at n={n}",
                    f"n={n}: count(mna={a}, mnd={d})={c}, count(mna={d}, mnd={a})={counts.get((d, a), 0)}")
    return f"joint (mna, mnd) distribution over 231-avoiders is symmetric for n <= {nmax}"


def _check_thm12ii(params: dict) -> str:
    nmax = params["n"]
    if refined_catalan(3, 1) != 4:
        raise Failed("closed form fails spot value n=3, k=1",
                     f"refined_catalan(3, 1) = {refined_catalan(3, 1)}, expected 4")
    stat_table("mndmna231", nmax)  # the largest size first: one counting pass fills the rest
    for n in range(nmax + 1):
        dist = marginal(stat_table("mndmna231", n), itemgetter(0))
        for k in range(n // 2 + 1):
            if dist.get(k, 0) != refined_catalan(n, k):
                raise Failed(
                    f"mnd distribution deviates from closed form at n={n}",
                    f"n={n}, k={k}: enumerated {dist.get(k, 0)}, closed form {refined_catalan(n, k)}")
        if sum(dist.values()) != catalan(n):
            raise Failed(f"mnd distribution total wrong at n={n}",
                         f"n={n}: total {sum(dist.values())}, expected {catalan(n)}")
    return f"mnd over 231-avoiders matches the refined Catalan closed form for n <= {nmax}"


def _check_thm13(params: dict) -> str:
    nmax = params["n"]
    stat_table("mndmna231", nmax)  # the largest size first: one counting pass fills the rest
    for n in range(nmax + 1):
        lhs: dict[tuple[int, int], int] = {}
        for p in avoiders(n, (2, 3, 1)):
            t = upsilon(p)
            q = inverse(p)
            if descending_run_multiset(p) != left_chain_orders(t):
                raise Failed(f"descending-run multiset differs from left-chain orders at n={n}",
                             serialize_permutation(p))
            if ascending_run_multiset(q) != right_chain_orders(t):
                raise Failed(
                    f"inverse ascending-run multiset differs from right-chain orders at n={n}",
                    serialize_permutation(p))
            key = (mnd(p), mna(q))
            lhs[key] = lhs.get(key, 0) + 1
        # a chain of order k holds floor(k/2) pairs, so the tree route's odd chain
        # counts (olc, orc) give X = (n - olc)/2 and Y = (n - orc)/2
        trees = catalan_schett(n, "trees")
        rhs = {((n - olc) // 2, (n - orc) // 2): c for (olc, orc), c in trees.terms.items()}
        if lhs != rhs:
            raise Failed(f"(mnd, mna o inv) distribution differs from tree (X, Y) at n={n}",
                         f"n={n}: {sorted(lhs.items())} vs {sorted(rhs.items())}")
        if trees != catalan_schett(n, "perm231"):
            raise Failed(f"tree and 231-avoider polynomial routes disagree at n={n}")
    return f"run-to-chain transport and (mnd, mna o inv) = (X, Y) hold for n <= {nmax}"


def _marks_to_mnd(t, p):
    marks, d = mark_count(t), mnd(p)
    if marks != d:
        return "marked-node count differs from mnd", f"marks {marks}, mnd {d}"
    return None


def _sized_231(p, n: int) -> str | None:
    ok = len(p) == n and avoids(p, (2, 3, 1))
    return None if ok else f"image is not a 231-avoider of size {n}"


def _check_thm14(params: dict) -> str:
    _transport("vartheta", params["n"], _marks_to_mnd, member=_sized_231)
    return f"plane-tree map is a mark-to-mnd bijection onto 231-avoiders for n <= {params['n']}"


def _left_peaks_kept(p, q):
    before, after = left_peak_values(p), left_peak_values(q)
    if before != after:
        return "left-peak value set not preserved", f"LPK {sorted(before)} -> {sorted(after)}"
    return None


def _is_231(q, n: int) -> str | None:
    return None if avoids(q, (2, 3, 1)) else f"image is not a 231-avoider at n={n}"


def _check_thm15(params: dict) -> str:
    lpk = itemgetter(0, 1)
    _transport("Psi", params["n"], _left_peaks_kept, member=_is_231)
    _equidistributed(params["n"], "(lpk_e, lpk_o) distributions differ between classes",
                     ("lpkpk231", lpk), ("lpk321", lpk))
    return ("321-to-231 map preserves left-peak values and "
            f"(lpk_e, lpk_o) for n <= {params['n']}")


def _descents_to_walks(p, pair):
    mu, nu = pair
    if hor_set(nu) != descent_set(p):
        return "descent set differs from lower-walk east set", None
    if ver_set(mu) != ascent_set(inverse(p)):
        return "inverse ascent set differs from upper-walk north set", None
    return None


def _check_thm23(params: dict) -> str:
    _transport("theta", params["n"], _descents_to_walks, start=1, codomain=walk_pairs)
    return f"231-avoider walk-pair map transports (DES, ASC o inv) for n <= {params['n']}"


def _excedances_to_walks(p, pair):
    mu, nu = pair
    if hor_set(nu) != excedance_set(p):
        return "excedance set differs from lower-walk east set", None
    if ver_set(mu) != weak_excedance_set_shifted(inverse(p)):
        return "shifted weak excedances differ from upper-walk north set", None
    return None


def _check_thm213(params: dict) -> str:
    _transport("Phi", params["n"], _excedances_to_walks, start=1, codomain=walk_pairs)
    _equidistributed(params["n"],
                     "(mnd, mna o inv) on 231 differs from (mne, mnw o inv) on 321",
                     ("mndmna231", itemgetter(0, 2)), ("mnemnw321", itemgetter(0, 1)))
    return ("321-avoider walk-pair map transports excedance data and the joint "
            f"(mnd, mna o inv) = (mne, mnw o inv) identity holds for n <= {params['n']}")


def _runs_to_arms(p, t):
    if idr(p) != left_arm(t):
        return "initial descending run differs from left arm", None
    if iar(inverse(p)) != right_arm(t):
        return "inverse initial ascending run differs from right arm", None
    return None


def _check_lem22(params: dict) -> str:
    _transport("upsilon", params["n"], _runs_to_arms, noun="trees")
    return f"231-avoider tree map is an arm-statistic bijection for n <= {params['n']}"


def _chains_to_platforms(t, w):
    chains, platforms = sorted(left_chain_orders(t)), sorted(platform_multiset(w))
    if chains != platforms:
        return "left-chain orders differ from platform multiset", f"{chains} vs {platforms}"
    return None


def _check_lem28(params: dict) -> str:
    _transport("tau", params["n"], _chains_to_platforms, noun="paths")
    return ("binary-tree lattice-path map carries left chains to "
            f"platforms for n <= {params['n']}")


def _platform_marks(word: str) -> tuple[set[int], set[int]]:
    """Indices (1-based, among east steps) of platform-final and long-platform penultimate easts."""
    final: set[int] = set()
    penultimate: set[int] = set()
    e = 0
    for run in word.split("N"):  # the maximal east runs, with empty strings between norths
        if run:
            e += len(run)
            final.add(e)
            if len(run) >= 2:
                penultimate.add(e - 1)
    return final, penultimate


def _excedances_to_platforms(p, w):
    final, penultimate = _platform_marks(w)
    nonexc = {i for i in range(1, len(p) + 1) if p[i - 1] <= i}
    if final != nonexc:
        return ("non-excedance positions differ from platform-final easts",
                f"{sorted(nonexc)} vs {sorted(final)}")
    descents = descent_set(p)
    if penultimate != descents:
        return ("descent positions differ from long-platform penultimate easts",
                f"{sorted(descents)} vs {sorted(penultimate)}")
    return None


def _check_lem210(params: dict) -> str:
    _transport("psi", params["n"], _excedances_to_platforms, noun="paths")
    return ("321-avoider lattice-path map marks non-excedances and "
            f"descents for n <= {params['n']}")


def _check_lem218(params: dict) -> str:
    nmax = params["n"]
    for n in range(nmax + 1):
        for t in plane_trees(n):
            has_leaf_child = any(c == () for c in t)
            if has_leaf_child != (idr(vartheta(t)) % 2 == 1):
                raise Failed(f"root leaf-child criterion disagrees with idr parity at n={n}",
                             f"{serialize_plane_tree(t)}: leaf child {has_leaf_child}, "
                             f"idr {idr(vartheta(t))}")
    return f"root has a leaf child iff the image has odd initial descending run, n <= {nmax}"


def _check_prop211(params: dict) -> str:
    _equidistributed(params["n"], "mnd on 231-avoiders differs from mne on 321-avoiders",
                     ("mndmna231", itemgetter(0)), ("mnemnw321", itemgetter(0)))
    return ("mnd over 231-avoiders is equidistributed with mne "
            f"over 321-avoiders, n <= {params['n']}")


def _check_cor26(params: dict) -> str:
    nmax = params["n"]
    bmax = min(params["baxter_n"], nmax)
    for n in range(nmax + 1):
        for p in avoiders(n, (2, 3, 1)):
            if descent_bottoms(inverse(p)) != descent_set(p):
                raise Failed(f"inverse descent bottoms differ from descents at n={n}",
                             serialize_permutation(p))
            if n == 0:
                continue
            q = gamma_theta(p)
            if descent_set(q) != descent_set(p):
                raise Failed(f"composite map does not preserve descents at n={n}",
                             serialize_permutation(p))
            if modified_descent_tops(inverse(q)) != descent_set(inverse(p)):
                raise Failed(
                    f"shifted descent tops of the inverse miss inverse descents at n={n}",
                    serialize_permutation(p))
    for n in range(1, bmax + 1):
        seen: dict = {}
        for b in baxter_permutations(n):
            triple = gamma(b)
            if triple in seen:
                raise Failed(
                    f"walk-triple map not injective at n={n}",
                    f"{serialize_permutation(seen[triple])} and {serialize_permutation(b)}")
            seen[triple] = b
    return (f"descent-transport contract holds for n <= {nmax} and the walk-triple map "
            f"is injective for n <= {bmax}")


_FROZEN_POLYNOMIALS = {
    1: {(1, 1): 1},
    2: {(2, 0): 1, (0, 2): 1},
    3: {(3, 1): 1, (1, 3): 1, (1, 1): 3},
    4: {(4, 0): 1, (2, 2): 8, (0, 4): 1, (2, 0): 2, (0, 2): 2},
    5: {(5, 1): 1, (3, 3): 5, (1, 5): 1, (3, 1): 15, (1, 3): 15, (1, 1): 5},
    6: {(6, 0): 1, (4, 2): 27, (2, 4): 27, (0, 6): 1, (4, 0): 8, (2, 2): 54,
        (0, 4): 8, (2, 0): 3, (0, 2): 3},
}


def _check_schett_routes(params: dict) -> str:
    nmax = params["n"]
    stat_table("mndmna231", nmax)  # the largest size first: one counting pass fills the rest
    stat_table("mnemnw321", nmax)
    for n in range(nmax + 1):
        polys = {route: catalan_schett(n, route) for route in ROUTES}
        for route, other in polys.items():
            if other != polys["trees"]:
                raise Failed(f"route {route} disagrees with the tree route at n={n}",
                             f"n={n}: {other.sorted_terms()} vs {polys['trees'].sorted_terms()}")
    for n, terms in sorted(_FROZEN_POLYNOMIALS.items()):
        if catalan_schett(n, "trees") != LaurentPoly2(terms):
            raise Failed(f"computed polynomial differs from the frozen table at n={n}",
                         f"n={n}: {catalan_schett(n, 'trees').sorted_terms()}")
    return (f"all three polynomial routes agree for n <= {nmax} and degrees 1..6 "
            f"match the frozen table")


def _series_check(name: str):
    def run(params: dict) -> tuple[str, list[dict]]:
        order = params["order"]
        rows: list[dict] = []
        passing: list[str] = []
        for label, equations in residuals.system_readings(name, order):
            failure = None
            for eq_label, lhs, rhs in equations:
                if lhs != rhs:
                    failure = dict(residuals.first_failure(lhs, rhs))
                    failure["equation"] = eq_label
                    break
            rows.append({"reading": label, "pass": failure is None,
                         "first_failure": failure})
            if failure is None:
                passing.append(label)
        if name == "bbs":
            ok = len(passing) == 1
            if ok:
                detail = f"exactly one reading passes: {passing[0]}"
            else:
                detail = (f"{len(passing)} readings pass, expected exactly one"
                          + (f": {', '.join(passing)}" if passing else ""))
        else:
            ok = bool(passing)
            detail = f"passing reading: {passing[0]}" if ok else "no reading passes"
        if not ok:
            raise Failed(detail, readings=rows, first_failure=next(
                (row["first_failure"] for row in rows if row["first_failure"] is not None), None))
        return detail, rows

    return run


_CHECKS = {
    "thm1.2i": _check_thm12i,
    "thm1.2ii": _check_thm12ii,
    "thm1.3": _check_thm13,
    "thm1.4": _check_thm14,
    "thm1.5": _check_thm15,
    "thm2.3": _check_thm23,
    "thm2.13": _check_thm213,
    "lem2.2": _check_lem22,
    "lem2.8": _check_lem28,
    "lem2.10": _check_lem210,
    "lem2.18": _check_lem218,
    "prop2.11": _check_prop211,
    "cor2.6": _check_cor26,
    **{name: _series_check(name) for name in residuals.SYSTEMS},
    "schett-routes": _check_schett_routes,
}

CHECK_NAMES = tuple(_CHECKS) + ("all",)


def run_check(name: str, n: int | None = None, order: int | None = None,
              jobs: int | None = None) -> CheckResult:
    """Run one named check with optional size/order overrides and report its verdict.

    A body returns its PASS detail (a series body also its readings) or raises
    Failed; a body that returns anything else, or raises any other exception,
    fails.  An override the check takes must lie in 1..enumeration_bound, and
    ``jobs`` must be at least 1, else ValueError.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if name == "all":
        return run_all(n=n, order=order, jobs=jobs)
    if name not in _CHECKS:
        raise KeyError(f"unknown check: {name!r}")
    params = dict(config.check_params(name))
    for key, value in (("n", n), ("order", order)):
        if value is not None and key in params:  # an override the check does not take is ignored
            params[key] = config.require_bounded(key, value)
    start = time.perf_counter()
    try:
        verdict = _CHECKS[name](params)
    except Failed as failure:
        result = CheckResult(name, params, False, failure.detail, failure.counterexample,
                             failure.first_failure, failure.readings)
    except Exception as exc:  # a body that raises did not finish its work, so it failed
        result = CheckResult(name, params, False,
                             f"check body raised {type(exc).__name__}: {exc}")
    else:
        match verdict:
            case str():
                result = CheckResult(name, params, True, verdict)
            case tuple((str(detail), list(readings))) if name in residuals.SYSTEMS:
                result = CheckResult(name, params, True, detail, readings=readings)
            case _:  # anything else is no verdict, so nothing passed
                result = CheckResult(name, params, False,
                                     f"check body returned {type(verdict).__name__}, not a verdict")
    result.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return result


def run_all(n: int | None = None, order: int | None = None,
            jobs: int | None = None) -> CheckResult:
    """Run every named check and aggregate, fanning out over at most one process per check."""
    names = list(_CHECKS)
    run = partial(run_check, n=n, order=order)
    start = time.perf_counter()
    if jobs is not None and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only here
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            subresults = list(pool.map(run, names))
    else:
        subresults = list(map(run, names))
    passed = all(s.passed for s in subresults)
    failing = [s.check for s in subresults if not s.passed]
    detail = ("all checks pass" if passed
              else "failing checks: " + ", ".join(failing))
    result = CheckResult("all", {}, passed, detail, subresults=subresults)
    result.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return result
