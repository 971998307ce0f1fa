"""Residual assembly for the functional and algebraic series identities.

Each system yields one or more *readings* — alternative transcriptions kept
wherever the printed source is ambiguous or fails the residual test — and each
reading carries named equations as (label, lhs, rhs) series pairs.  Evaluation
never auto-corrects: every reading is reported with its own residual outcome.
"""

from collections.abc import Mapping
from functools import cache

from catschett.serieslab import appendix, families
from catschett.serieslab.laurent import LaurentPoly2
from catschett.serieslab.series import TruncatedSeries, geometric_t2

# Every identity system in report order: lem3.1 and the eq: systems are functional
# equations, the rest algebraic ones.
SYSTEMS = ("lem3.1", "eq:ee", "eq:eo", "eq:o", "eq:G", "eq:LE", "alg:gf1", "alg:gf2", "thm1.6i", "bbs")

Equations = list[tuple[str, TruncatedSeries, TruncatedSeries]]
Readings = list[tuple[str, Equations]]


def load_appendix_coefficients() -> Mapping[str, tuple]:
    """The transcribed equation coefficients: a read-only map from key to (t, x, y, coefficient) rows."""
    return appendix.COEFFICIENTS


def coefficient_series(coeffs: Mapping[str, tuple], key: str, order: int) -> TruncatedSeries:
    """One stored coefficient polynomial as a truncated series in t with Laurent coefficients."""
    per_order: dict[int, dict[tuple[int, int], int]] = {}
    for td, xd, yd, c in coeffs[key]:
        if td <= order:
            per_order.setdefault(td, {})[(xd, yd)] = per_order.setdefault(td, {}).get((xd, yd), 0) + c
    return TruncatedSeries(order, [LaurentPoly2(per_order.get(k)) for k in range(order + 1)])


def first_failure(lhs: TruncatedSeries, rhs: TruncatedSeries) -> dict | None:
    """Locus of the lowest nonzero residual coefficient, or None when the sides agree."""
    nz = (lhs - rhs).first_nonzero()
    if nz is None:
        return None
    k, poly = nz
    a, b, _ = poly.sorted_terms()[0]
    return {
        "t_order": k,
        "monomial": f"x^{a}*y^{b}",
        "lhs": lhs.coefficient(k).coefficient(a, b),
        "rhs": rhs.coefficient(k).coefficient(a, b),
    }


def _series(order: int, *names: str) -> list[TruncatedSeries]:
    return [families.series(name, order) for name in names]


def _functional_readings(name: str, order: int) -> Readings:
    geo = geometric_t2(order)
    one = TruncatedSeries.one(order)
    if name == "lem3.1":
        eo, oe = _series(order, "EO", "OE")
        return [("literal", [("EO=OE", eo, oe)])]
    if name == "eq:G":
        # the four blocks split the Dyck-segment table, so their sum is G read over Dyck paths
        g, ee, eo, oe, oo = _series(order, "G", "EE", "EO", "OE", "OO")
        return [("literal", [("G=EE+2EO+OO", g, ee + eo + eo + oo),
                             ("G routes", g, ee + eo + oe + oo)])]
    if name == "eq:ee":
        ee, eo, oe, oo = _series(order, "EE", "EO", "OE", "OO")
        t11 = geo.mul_monomial(2, 0, 1)
        t12 = oe.mul_monomial(1, -1, 1)
        inner21 = oe - (ee - geo.mul_monomial(2, 0, 1)).mul_monomial(1, 1, -1)
        fac21 = one + ee.mul_monomial(0, 0, -1) + oe.mul_monomial(0, 0, -1)
        t21 = (inner21 * fac21).mul_monomial(1, -1, 1)
        inner22 = oo - geo.mul_monomial(1, 1, 0) - eo.mul_monomial(1, 1, -1)
        fac22 = (
            ee.mul_monomial(0, 0, -1)
            - geo.mul_monomial(2, 0, 0)
            + oe.mul_monomial(0, -2, 1)
            + geo.mul_monomial(1, -1, 1)
        )
        t22 = (inner22 * fac22).mul_monomial(1, -1, 1)
        return [("literal", [("EE", ee, t11 + t12 + t21 + t22)])]
    if name == "eq:eo":
        ee, eo, oe, oo = _series(order, "EE", "EO", "OE", "OO")
        t1 = (oo - geo.mul_monomial(1, 1, 0)).mul_monomial(1, -1, 1)
        inner21 = oe - (ee - geo.mul_monomial(2, 0, 1)).mul_monomial(1, 1, -1)
        inner22 = oo - eo.mul_monomial(1, 1, -1) - geo.mul_monomial(1, 1, 0)
        fac22 = geo + eo.mul_monomial(0, 0, -1) + oo.mul_monomial(0, -2, 1) - geo.mul_monomial(1, -1, 1)
        t22 = (inner22 * fac22).mul_monomial(1, -1, 1)
        readings = []
        for label, mult in (("literal (EO+EE)", eo + ee), ("terminal-parity variant (EO+OO)", eo + oo)):
            t21 = (inner21 * mult).mul_monomial(1, -1, 0)
            readings.append((label, [("EO", eo, t1 + t21 + t22)]))
        return readings
    if name == "eq:o":
        ee, eo, oe, oo = _series(order, "EE", "EO", "OE", "OO")
        f = eo.mul_monomial(0, 0, -1) + geo + oo.mul_monomial(0, -2, 1) - geo.mul_monomial(1, -1, 1)
        o1 = geo.mul_monomial(1, 1, 0)
        o2 = eo.mul_monomial(1, 1, -1)
        o3 = (eo + geo.mul_monomial(0, 0, 1)).mul_monomial(2, 2, -1)
        o4 = (oo - geo.mul_monomial(1, 1, 0)).mul_monomial(2, 0, 1)
        o5 = ((eo + geo.mul_monomial(2, 0, 1)) * f).mul_monomial(2, 2, -1)
        o6 = ((ee - geo.mul_monomial(2, 0, 1)) * (eo + oo)).mul_monomial(2, 2, -2)
        o7 = ((oo - geo.mul_monomial(1, 1, 0)) * f).mul_monomial(2, 0, 1)
        o8 = ((oe + geo.mul_monomial(1, 1, 0)) * (eo + oo)).mul_monomial(2, 0, 0)
        o9 = ((ee - geo.mul_monomial(2, 0, 1) - oe.mul_monomial(1, -1, 1)) * (oo + eo)).mul_monomial(1, 1, -2)
        o10 = ((eo - (oo - geo.mul_monomial(1, 1, 0)).mul_monomial(1, -1, 1)) * f).mul_monomial(1, 1, -1)
        return [("literal", [("OO", oo, o1 + o2 + o3 + o4 + o5 + o6 + o7 + o8 + o9 + o10)])]
    if name == "eq:LE":
        m, le, lo, e, o = _series(order, "M", "LE", "LO", "E", "O")
        le_s, lo_s, e_s, o_s = le.swap_xy(), lo.swap_xy(), e.swap_xy(), o.swap_xy()
        # each product feeds two equations: LE and E, LO and O, and their swapped forms
        o_le, o_lo = o * (one + le), o * lo
        o_le_s, o_lo_s = o_s * (one + le_s), o_s * lo_s
        equations = [
            ("M=LE+LO", m, le + lo),
            (
                "LE",
                le,
                o_le.mul_monomial(1, 1, 0) + lo_s.mul_monomial(1, 0, 0) + (e * lo_s).mul_monomial(1, 0, 1),
            ),
            (
                "LO",
                lo,
                o_lo.mul_monomial(1, 1, 0)
                + (one + le_s).mul_monomial(1, 0, 0)
                + ((one + le_s) * e).mul_monomial(1, 0, 1),
            ),
            ("E", e, o_le.mul_monomial(1, 0, 0) + ((one + e) * lo_s).mul_monomial(1, 0, 0)),
            ("O", o, o_lo.mul_monomial(1, 0, 0) + ((one + e) * (one + le_s)).mul_monomial(1, 0, 0)),
            (
                "LE swapped",
                le_s,
                o_le_s.mul_monomial(1, 0, 1) + lo.mul_monomial(1, 0, 0) + (e_s * lo).mul_monomial(1, 1, 0),
            ),
            (
                "LO swapped",
                lo_s,
                o_lo_s.mul_monomial(1, 0, 1)
                + (one + le).mul_monomial(1, 0, 0)
                + ((one + le) * e_s).mul_monomial(1, 1, 0),
            ),
            ("E swapped", e_s, o_le_s.mul_monomial(1, 0, 0) + ((one + e_s) * lo).mul_monomial(1, 0, 0)),
            ("O swapped", o_s, o_lo_s.mul_monomial(1, 0, 0) + ((one + e_s) * (one + le)).mul_monomial(1, 0, 0)),
        ]
        return [("literal", equations)]
    raise ValueError(f"unknown functional system: {name}")


def _powers(series: TruncatedSeries, k: int) -> list[TruncatedSeries]:
    """series**1 .. series**k, taken once per system and shared by its readings."""
    powers = [series]
    while len(powers) < k:
        powers.append(powers[-1] * series)
    return powers


def _polynomial_residual(powers: list[TruncatedSeries], coeff_list: list[TruncatedSeries]) -> TruncatedSeries:
    # coeff_list[k] multiplies series**k, which is powers[k - 1]
    acc = coeff_list[0]
    for coeff, power in zip(coeff_list[1:], powers):
        acc = acc + coeff * power
    return acc


def _algebraic_readings(name: str, order: int) -> Readings:
    coeffs = load_appendix_coefficients()
    zero = TruncatedSeries.zero(order)

    @cache  # readings of one system share their coefficients
    def cs(key: str) -> TruncatedSeries:
        return coefficient_series(coeffs, key, order)

    if name == "alg:gf1":
        powers = _powers(families.series("G", order), 4)
        readings = []
        for label, a2key in (("literal", "alg_gf1_a2"), ("alpha2 minus 8t^2xy", "alg_gf1_a2_minus_8t2xy")):
            coeff_list = [cs("alg_gf1_a0"), cs("alg_gf1_a1"), cs(a2key), cs("alg_gf1_a3"), cs("alg_gf1_a4")]
            readings.append((label, [("residual", _polynomial_residual(powers, coeff_list), zero)]))
        return readings
    if name == "thm1.6i":
        powers = _powers(families.series("A", order), 4)
        coeff_list = [cs("quartic_r0"), cs("quartic_r1"), cs("quartic_r2"), -cs("quartic_r3"), cs("quartic_c4")]
        return [("literal", [("residual", _polynomial_residual(powers, coeff_list), zero)])]
    if name == "alg:gf2":
        powers = _powers(families.series("M", order), 6)
        readings = []
        for label, b1key in (
            ("beta1 t^11 (literal)", "alg_gf2_b1_literal"),
            ("beta1 t^10", "alg_gf2_b1_t10"),
            ("beta1 t^10 minus x^2t", "alg_gf2_b1_t10_minus_x2t"),
        ):
            coeff_list = [cs("alg_gf2_b0"), cs(b1key)] + [cs(f"alg_gf2_b{k}") for k in range(2, 7)]
            readings.append((label, [("residual", _polynomial_residual(powers, coeff_list), zero)]))
        return readings
    if name == "bbs":
        powers = _powers(families.series("B", order), 2)
        readings = []
        for label, linkey in (("2t^2x", "bbs_lin_t2x"), ("2tx", "bbs_lin_tx")):
            res = _polynomial_residual(powers, [cs("bbs_q0"), cs(linkey), cs("bbs_q2")])
            readings.append((label, [("residual", res, zero)]))
        return readings
    raise ValueError(f"unknown algebraic system: {name}")


def system_readings(name: str, order: int) -> Readings:
    """All candidate readings of one identity system, each with its equations."""
    if name not in SYSTEMS:
        raise ValueError(f"unknown system: {name}")
    if name == "lem3.1" or name.startswith("eq:"):
        return _functional_readings(name, order)
    return _algebraic_readings(name, order)
