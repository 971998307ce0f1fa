"""Named verification checks: exhaustive suites at small sizes plus series residuals."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from catschett import config
from catschett.bijections import (
    gamma,
    gamma_theta,
    phi_cap,
    phi_cap_inv,
    psi_cap,
    psi_cap_inv,
    psi_kratt,
    psi_kratt_inv,
    tau,
    tau_inv,
    theta,
    theta_inv,
    upsilon,
    upsilon_inv,
    vartheta,
    vartheta_inv,
)
from catschett.kernels import stat_table
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
    binary_trees,
    left_arm,
    left_chain_orders,
    plane_trees,
    right_arm,
    right_chain_orders,
    serialize_binary_tree,
    serialize_plane_tree,
)
from catschett.schett import catalan_schett
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
    tree_chain_profile,
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
        d["wall_time_ms"] = round(self.wall_time_ms, 3)
        if self.subresults is not None:
            for row, sub in zip(d["checks"], self.subresults):
                row["wall_time_ms"] = round(sub.wall_time_ms, 3)
        return d


def _ok(check: str, params: dict, detail: str) -> CheckResult:
    return CheckResult(check, params, True, detail)


def _fail(check: str, params: dict, detail: str,
          counterexample: str | None = None) -> CheckResult:
    return CheckResult(check, params, False, detail, counterexample)


def _check_thm12i(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        counts: dict[tuple[int, int], int] = {}
        for (d, a, _ai), c in stat_table("mndmna231", n).items():
            counts[a, d] = counts.get((a, d), 0) + c
        for (a, d), c in sorted(counts.items()):
            if counts.get((d, a), 0) != c:
                return _fail(
                    "thm1.2i", params,
                    f"joint (mna, mnd) matrix over 231-avoiders asymmetric at n={n}",
                    f"n={n}: count(mna={a}, mnd={d})={c}, count(mna={d}, mnd={a})={counts.get((d, a), 0)}")
    return _ok("thm1.2i", params,
               f"joint (mna, mnd) distribution over 231-avoiders is symmetric for n <= {nmax}")


def _check_thm12ii(params: dict) -> CheckResult:
    nmax = params["n"]
    if refined_catalan(3, 1) != 4:
        return _fail("thm1.2ii", params, "closed form fails spot value n=3, k=1",
                     f"refined_catalan(3, 1) = {refined_catalan(3, 1)}, expected 4")
    for n in range(nmax + 1):
        dist: dict[int, int] = {}
        for (d, _a, _ai), c in stat_table("mndmna231", n).items():
            dist[d] = dist.get(d, 0) + c
        for k in range(n // 2 + 1):
            if dist.get(k, 0) != refined_catalan(n, k):
                return _fail(
                    "thm1.2ii", params, f"mnd distribution deviates from closed form at n={n}",
                    f"n={n}, k={k}: enumerated {dist.get(k, 0)}, closed form {refined_catalan(n, k)}")
        if sum(dist.values()) != catalan(n):
            return _fail("thm1.2ii", params, f"mnd distribution total wrong at n={n}",
                         f"n={n}: total {sum(dist.values())}, expected {catalan(n)}")
    return _ok("thm1.2ii", params,
               f"mnd over 231-avoiders matches the refined Catalan closed form for n <= {nmax}")


def _check_thm13(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        lhs: dict[tuple[int, int], int] = {}
        for p in avoiders(n, (2, 3, 1)):
            t = upsilon(p)
            if sorted(descending_run_multiset(p)) != sorted(left_chain_orders(t)):
                return _fail("thm1.3", params,
                             f"descending-run multiset differs from left-chain orders at n={n}",
                             serialize_permutation(p))
            if sorted(ascending_run_multiset(inverse(p))) != sorted(right_chain_orders(t)):
                return _fail("thm1.3", params,
                             f"inverse ascending-run multiset differs from right-chain orders at n={n}",
                             serialize_permutation(p))
            key = (mnd(p), mna(inverse(p)))
            lhs[key] = lhs.get(key, 0) + 1
        rhs: dict[tuple[int, int], int] = {}
        for t in binary_trees(n):
            prof = tree_chain_profile(t)
            key = (prof["X"], prof["Y"])
            rhs[key] = rhs.get(key, 0) + 1
        if lhs != rhs:
            return _fail("thm1.3", params,
                         f"(mnd, mna o inv) distribution differs from tree (X, Y) at n={n}",
                         f"n={n}: {sorted(lhs.items())} vs {sorted(rhs.items())}")
        if catalan_schett(n, "trees") != catalan_schett(n, "perm231"):
            return _fail("thm1.3", params,
                         f"tree and 231-avoider polynomial routes disagree at n={n}")
    return _ok("thm1.3", params,
               f"run-to-chain transport and (mnd, mna o inv) = (X, Y) hold for n <= {nmax}")


def _check_thm14(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        seen: set = set()
        for t in plane_trees(n):
            p = vartheta(t)
            if len(p) != n or not avoids(p, (2, 3, 1)):
                return _fail("thm1.4", params,
                             f"image is not a 231-avoider of size {n}", serialize_plane_tree(t))
            if p in seen:
                return _fail("thm1.4", params, f"map not injective at n={n}",
                             serialize_plane_tree(t))
            seen.add(p)
            if vartheta_inv(p) != t:
                return _fail("thm1.4", params, f"round-trip fails at n={n}",
                             serialize_plane_tree(t))
            if mark_count(t) != mnd(p):
                return _fail(
                    "thm1.4", params, f"marked-node count differs from mnd at n={n}",
                    f"{serialize_plane_tree(t)}: marks {mark_count(t)}, mnd {mnd(p)}")
        if len(seen) != catalan(n):
            return _fail("thm1.4", params, f"image size wrong at n={n}",
                         f"n={n}: {len(seen)} images, expected {catalan(n)}")
    return _ok("thm1.4", params,
               f"plane-tree map is a mark-to-mnd bijection onto 231-avoiders for n <= {nmax}")


def _check_thm15(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        seen: set = set()
        for p in avoiders(n, (3, 2, 1)):
            q = psi_cap(p)
            if not avoids(q, (2, 3, 1)):
                return _fail("thm1.5", params, f"image is not a 231-avoider at n={n}",
                             serialize_permutation(p))
            if q in seen:
                return _fail("thm1.5", params, f"map not injective at n={n}",
                             serialize_permutation(p))
            seen.add(q)
            if psi_cap_inv(q) != p:
                return _fail("thm1.5", params, f"round-trip fails at n={n}",
                             serialize_permutation(p))
            if left_peak_values(p) != left_peak_values(q):
                return _fail(
                    "thm1.5", params, f"left-peak value set not preserved at n={n}",
                    f"{serialize_permutation(p)}: LPK {sorted(left_peak_values(p))} "
                    f"-> {sorted(left_peak_values(q))}")
        if len(seen) != catalan(n):
            return _fail("thm1.5", params, f"image size wrong at n={n}",
                         f"n={n}: {len(seen)} images, expected {catalan(n)}")
        lpk231 = {}
        lpk321 = {}
        for (le, lo, _pe, _po), c in stat_table("lpkpk231", n).items():
            lpk231[le, lo] = lpk231.get((le, lo), 0) + c
        for (le, lo, _pe, _po), c in stat_table("lpk321", n).items():
            lpk321[le, lo] = lpk321.get((le, lo), 0) + c
        if lpk231 != lpk321:
            return _fail("thm1.5", params,
                         f"(lpk_e, lpk_o) distributions differ between classes at n={n}",
                         f"n={n}: {sorted(lpk231.items())} vs {sorted(lpk321.items())}")
    return _ok("thm1.5", params,
               f"321-to-231 map preserves left-peak values and (lpk_e, lpk_o) for n <= {nmax}")


def _check_thm23(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(1, nmax + 1):
        image: set = set()
        for p in avoiders(n, (2, 3, 1)):
            mu, nu = theta(p)
            if (mu, nu) in image:
                return _fail("thm2.3", params, f"map not injective at n={n}",
                             serialize_permutation(p))
            image.add((mu, nu))
            if theta_inv((mu, nu)) != p:
                return _fail("thm2.3", params, f"round-trip fails at n={n}",
                             serialize_permutation(p))
            if hor_set(nu) != descent_set(p):
                return _fail("thm2.3", params,
                             f"descent set differs from lower-walk east set at n={n}",
                             serialize_permutation(p))
            if ver_set(mu) != ascent_set(inverse(p)):
                return _fail("thm2.3", params,
                             f"inverse ascent set differs from upper-walk north set at n={n}",
                             serialize_permutation(p))
        if image != set(walk_pairs(n)):
            return _fail("thm2.3", params, f"image is not all dominated walk pairs at n={n}",
                         f"n={n}: {len(image)} images, "
                         f"{sum(1 for _ in walk_pairs(n))} walk pairs")
    return _ok("thm2.3", params,
               f"231-avoider walk-pair map transports (DES, ASC o inv) for n <= {nmax}")


def _check_thm213(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(1, nmax + 1):
        image: set = set()
        for p in avoiders(n, (3, 2, 1)):
            mu, nu = phi_cap(p)
            if (mu, nu) in image:
                return _fail("thm2.13", params, f"map not injective at n={n}",
                             serialize_permutation(p))
            image.add((mu, nu))
            if phi_cap_inv((mu, nu)) != p:
                return _fail("thm2.13", params, f"round-trip fails at n={n}",
                             serialize_permutation(p))
            if hor_set(nu) != excedance_set(p):
                return _fail("thm2.13", params,
                             f"excedance set differs from lower-walk east set at n={n}",
                             serialize_permutation(p))
            if ver_set(mu) != weak_excedance_set_shifted(inverse(p)):
                return _fail("thm2.13", params,
                             f"shifted weak excedances differ from upper-walk north set at n={n}",
                             serialize_permutation(p))
        if image != set(walk_pairs(n)):
            return _fail("thm2.13", params, f"image is not all dominated walk pairs at n={n}",
                         f"n={n}: {len(image)} images, "
                         f"{sum(1 for _ in walk_pairs(n))} walk pairs")
    for n in range(nmax + 1):
        lhs: dict[tuple[int, int], int] = {}
        rhs: dict[tuple[int, int], int] = {}
        for (d, _a, ai), c in stat_table("mndmna231", n).items():
            lhs[d, ai] = lhs.get((d, ai), 0) + c
        for (e, w), c in stat_table("mnemnw321", n).items():
            rhs[e, w] = rhs.get((e, w), 0) + c
        if lhs != rhs:
            return _fail("thm2.13", params,
                         f"(mnd, mna o inv) on 231 differs from (mne, mnw o inv) on 321 at n={n}",
                         f"n={n}: {sorted(lhs.items())} vs {sorted(rhs.items())}")
    return _ok("thm2.13", params,
               f"321-avoider walk-pair map transports excedance data and the joint "
               f"(mnd, mna o inv) = (mne, mnw o inv) identity holds for n <= {nmax}")


def _check_lem22(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        seen: set = set()
        for p in avoiders(n, (2, 3, 1)):
            t = upsilon(p)
            if t in seen:
                return _fail("lem2.2", params, f"map not injective at n={n}",
                             serialize_permutation(p))
            seen.add(t)
            if upsilon_inv(t) != p:
                return _fail("lem2.2", params, f"round-trip fails at n={n}",
                             serialize_permutation(p))
            if idr(p) != left_arm(t):
                return _fail("lem2.2", params,
                             f"initial descending run differs from left arm at n={n}",
                             serialize_permutation(p))
            if iar(inverse(p)) != right_arm(t):
                return _fail("lem2.2", params,
                             f"inverse initial ascending run differs from right arm at n={n}",
                             serialize_permutation(p))
        if len(seen) != catalan(n):
            return _fail("lem2.2", params, f"image size wrong at n={n}",
                         f"n={n}: {len(seen)} trees, expected {catalan(n)}")
    return _ok("lem2.2", params,
               f"231-avoider tree map is an arm-statistic bijection for n <= {nmax}")


def _check_lem28(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        words: set = set()
        for t in binary_trees(n):
            w = tau(t)
            if w in words:
                return _fail("lem2.8", params, f"map not injective at n={n}",
                             serialize_binary_tree(t))
            words.add(w)
            if tau_inv(w) != t:
                return _fail("lem2.8", params, f"round-trip fails at n={n}",
                             serialize_binary_tree(t))
            if sorted(left_chain_orders(t)) != sorted(platform_multiset(w)):
                return _fail(
                    "lem2.8", params,
                    f"left-chain orders differ from platform multiset at n={n}",
                    f"{serialize_binary_tree(t)}: {sorted(left_chain_orders(t))} vs "
                    f"{sorted(platform_multiset(w))}")
        if len(words) != catalan(n):
            return _fail("lem2.8", params, f"image size wrong at n={n}",
                         f"n={n}: {len(words)} paths, expected {catalan(n)}")
    return _ok("lem2.8", params,
               f"binary-tree lattice-path map carries left chains to platforms for n <= {nmax}")


def _platform_marks(word: str) -> tuple[set[int], set[int]]:
    """Indices (1-based, among east steps) of platform-final and long-platform penultimate easts."""
    final: set[int] = set()
    penultimate: set[int] = set()
    e = 0
    run = 0
    for j, step in enumerate(word):
        if step != "E":
            continue
        e += 1
        run += 1
        if j + 1 == len(word) or word[j + 1] != "E":
            final.add(e)
            if run >= 2:
                penultimate.add(e - 1)
            run = 0
    return final, penultimate


def _check_lem210(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        words: set = set()
        for p in avoiders(n, (3, 2, 1)):
            w = psi_kratt(p)
            if w in words:
                return _fail("lem2.10", params, f"map not injective at n={n}",
                             serialize_permutation(p))
            words.add(w)
            if psi_kratt_inv(w) != p:
                return _fail("lem2.10", params, f"round-trip fails at n={n}",
                             serialize_permutation(p))
            final, penultimate = _platform_marks(w)
            nonexc = {i for i in range(1, n + 1) if p[i - 1] <= i}
            if final != nonexc:
                return _fail(
                    "lem2.10", params,
                    f"non-excedance positions differ from platform-final easts at n={n}",
                    f"{serialize_permutation(p)}: {sorted(nonexc)} vs {sorted(final)}")
            if penultimate != set(descent_set(p)):
                return _fail(
                    "lem2.10", params,
                    f"descent positions differ from long-platform penultimate easts at n={n}",
                    f"{serialize_permutation(p)}: {sorted(descent_set(p))} vs "
                    f"{sorted(penultimate)}")
        if len(words) != catalan(n):
            return _fail("lem2.10", params, f"image size wrong at n={n}",
                         f"n={n}: {len(words)} paths, expected {catalan(n)}")
    return _ok("lem2.10", params,
               f"321-avoider lattice-path map marks non-excedances and descents for n <= {nmax}")


def _check_lem218(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        for t in plane_trees(n):
            has_leaf_child = any(c == () for c in t)
            if has_leaf_child != (idr(vartheta(t)) % 2 == 1):
                return _fail(
                    "lem2.18", params,
                    f"root leaf-child criterion disagrees with idr parity at n={n}",
                    f"{serialize_plane_tree(t)}: leaf child {has_leaf_child}, "
                    f"idr {idr(vartheta(t))}")
    return _ok("lem2.18", params,
               f"root has a leaf child iff the image has odd initial descending run, n <= {nmax}")


def _check_prop211(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        lhs: dict[int, int] = {}
        rhs: dict[int, int] = {}
        for (d, _a, _ai), c in stat_table("mndmna231", n).items():
            lhs[d] = lhs.get(d, 0) + c
        for (e, _w), c in stat_table("mnemnw321", n).items():
            rhs[e] = rhs.get(e, 0) + c
        if lhs != rhs:
            return _fail("prop2.11", params,
                         f"mnd on 231-avoiders differs from mne on 321-avoiders at n={n}",
                         f"n={n}: {sorted(lhs.items())} vs {sorted(rhs.items())}")
    return _ok("prop2.11", params,
               f"mnd over 231-avoiders is equidistributed with mne over 321-avoiders, n <= {nmax}")


def _check_cor26(params: dict) -> CheckResult:
    nmax = params["n"]
    bmax = min(params["baxter_n"], nmax)
    for n in range(nmax + 1):
        for p in avoiders(n, (2, 3, 1)):
            if descent_bottoms(inverse(p)) != descent_set(p):
                return _fail("cor2.6", params,
                             f"inverse descent bottoms differ from descents at n={n}",
                             serialize_permutation(p))
            if n == 0:
                continue
            q = gamma_theta(p)
            if descent_set(q) != descent_set(p):
                return _fail("cor2.6", params,
                             f"composite map does not preserve descents at n={n}",
                             serialize_permutation(p))
            if modified_descent_tops(inverse(q)) != descent_set(inverse(p)):
                return _fail(
                    "cor2.6", params,
                    f"shifted descent tops of the inverse miss inverse descents at n={n}",
                    serialize_permutation(p))
    for n in range(1, bmax + 1):
        seen: dict = {}
        for b in baxter_permutations(n):
            triple = gamma(b)
            if triple in seen:
                return _fail(
                    "cor2.6", params, f"walk-triple map not injective at n={n}",
                    f"{serialize_permutation(seen[triple])} and {serialize_permutation(b)}")
            seen[triple] = b
    return _ok("cor2.6", params,
               f"descent-transport contract holds for n <= {nmax} and the walk-triple map "
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


def _check_schett_routes(params: dict) -> CheckResult:
    nmax = params["n"]
    for n in range(nmax + 1):
        by_trees = catalan_schett(n, "trees")
        for route in ("perm231", "perm321"):
            other = catalan_schett(n, route)
            if other != by_trees:
                return _fail("schett-routes", params,
                             f"route {route} disagrees with the tree route at n={n}",
                             f"n={n}: {other.sorted_terms()} vs {by_trees.sorted_terms()}")
    for n, terms in sorted(_FROZEN_POLYNOMIALS.items()):
        if catalan_schett(n, "trees") != LaurentPoly2(terms):
            return _fail("schett-routes", params,
                         f"computed polynomial differs from the frozen table at n={n}",
                         f"n={n}: {catalan_schett(n, 'trees').sorted_terms()}")
    return _ok("schett-routes", params,
               f"all three polynomial routes agree for n <= {nmax} and degrees 1..6 "
               f"match the frozen table")


def _series_check(name: str):
    def run(params: dict) -> CheckResult:
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
        first_failure = None
        if not ok:
            for row in rows:
                if row["first_failure"] is not None:
                    first_failure = row["first_failure"]
                    break
        return CheckResult(name, params, ok, detail, None, first_failure, rows)

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
    "lem3.1": _series_check("lem3.1"),
    "eq:ee": _series_check("eq:ee"),
    "eq:eo": _series_check("eq:eo"),
    "eq:o": _series_check("eq:o"),
    "eq:G": _series_check("eq:G"),
    "eq:LE": _series_check("eq:LE"),
    "alg:gf1": _series_check("alg:gf1"),
    "alg:gf2": _series_check("alg:gf2"),
    "thm1.6i": _series_check("thm1.6i"),
    "bbs": _series_check("bbs"),
    "schett-routes": _check_schett_routes,
}

CHECK_NAMES = tuple(_CHECKS) + ("all",)


def run_check(name: str, n: int | None = None, order: int | None = None,
              jobs: int | None = None) -> CheckResult:
    """Run one named check with optional size/order overrides.

    An override the check takes must lie in 0..enumeration_bound, else ValueError.
    """
    if name == "all":
        return run_all(n=n, order=order, jobs=jobs)
    if name not in _CHECKS:
        raise KeyError(f"unknown check: {name!r}")
    params = dict(config.check_params(name))
    bound = config.enumeration_bound()
    for key, value in (("n", n), ("order", order)):
        if value is None or key not in params:
            continue  # an override the check does not take is ignored
        if not 0 <= value <= bound:
            raise ValueError(f"{key} must lie in 0..{bound} (the enumeration bound), got {value}")
        params[key] = value
    start = time.perf_counter()
    result = _CHECKS[name](params)
    result.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return result


def _run_for_pool(args: tuple) -> CheckResult:
    name, n, order = args
    return run_check(name, n=n, order=order)


def run_all(n: int | None = None, order: int | None = None,
            jobs: int | None = None) -> CheckResult:
    """Run every named check and aggregate, optionally fanning out over processes."""
    names = list(_CHECKS)
    start = time.perf_counter()
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            subresults = list(pool.map(_run_for_pool, [(nm, n, order) for nm in names]))
    else:
        subresults = [run_check(nm, n=n, order=order) for nm in names]
    passed = all(s.passed for s in subresults)
    failing = [s.check for s in subresults if not s.passed]
    detail = ("all checks pass" if passed
              else "failing checks: " + ", ".join(failing))
    result = CheckResult("all", {}, passed, detail, subresults=subresults)
    result.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return result
