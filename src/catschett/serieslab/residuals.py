"""Residual assembly for the functional and algebraic series identities.

Each system yields one or more *readings* — alternative transcriptions kept
wherever the printed source is ambiguous or fails the residual test — and each
reading carries named equations as (label, lhs, rhs) series pairs.  Evaluation
never auto-corrects: every reading is reported with its own residual outcome.
"""

from collections.abc import Mapping

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
    # rows are unique per (t, x, y) exponent triple, so each term is stored, not summed
    per_order: dict[int, dict[tuple[int, int], int]] = {}
    for td, xd, yd, c in coeffs[key]:
        if td <= order:
            per_order.setdefault(td, {})[(xd, yd)] = c
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
        tx = geo.mul_monomial(1, 1, 0)
        ee_t2y = ee - geo.mul_monomial(2, 0, 1)
        oo_tx = oo - tx
        o1 = tx
        o2 = eo.mul_monomial(1, 1, -1)
        o3 = (eo + geo.mul_monomial(0, 0, 1)).mul_monomial(2, 2, -1)
        o4 = oo_tx.mul_monomial(2, 0, 1)
        # o5, o7 and o10 share the factor f, and o6, o8 and o9 share eo + oo: each group
        # shifts its left factors and multiplies their sum once (the t-shifts are >= 0,
        # so shifting before the truncated product is exact)
        by_f = (
            (eo + geo.mul_monomial(2, 0, 1)).mul_monomial(2, 2, -1)  # o5
            + oo_tx.mul_monomial(2, 0, 1)  # o7
            + (eo - oo_tx.mul_monomial(1, -1, 1)).mul_monomial(1, 1, -1)  # o10
        )
        by_eo_oo = (
            ee_t2y.mul_monomial(2, 2, -2)  # o6
            + (oe + tx).mul_monomial(2, 0, 0)  # o8
            + (ee_t2y - oe.mul_monomial(1, -1, 1)).mul_monomial(1, 1, -2)  # o9
        )
        o5_to_o10 = by_f * f + by_eo_oo * (eo + oo)
        return [("literal", [("OO", oo, o1 + o2 + o3 + o4 + o5_to_o10)])]
    if name == "eq:LE":
        m, le, lo, e, o = _series(order, "M", "LE", "LO", "E", "O")
        le_s, lo_s = le.swap_xy(), lo.swap_xy()
        one_le, one_le_s = one + le, one + le_s
        # ' marks the x/y swap.  Each product feeds two equations: o(1 + LE) feeds LE and E,
        # o LO feeds LO and O, e LO' feeds LE and E (whose (1 + e) LO' is LO' + e LO'), and
        # e(1 + LE') feeds LO and O (whose (1 + e)(1 + LE') is alike)
        o_le, o_lo, e_lo_s, e_le_s = o * one_le, o * lo, e * lo_s, e * one_le_s
        equations = [
            ("LE", le, o_le.mul_monomial(1, 1, 0) + lo_s.mul_monomial(1, 0, 0) + e_lo_s.mul_monomial(1, 0, 1)),
            ("LO", lo, o_lo.mul_monomial(1, 1, 0) + one_le_s.mul_monomial(1, 0, 0) + e_le_s.mul_monomial(1, 0, 1)),
            ("E", e, (o_le + lo_s + e_lo_s).mul_monomial(1, 0, 0)),
            ("O", o, (o_lo + one_le_s + e_le_s).mul_monomial(1, 0, 0)),
        ]
        # exchanging x and y is a ring automorphism, so each swapped equation's right
        # side is the unswapped one's, swapped
        swapped = [(f"{label} swapped", lhs.swap_xy(), rhs.swap_xy()) for label, lhs, rhs in equations]
        return [("literal", [("M=LE+LO", m, le + lo)] + equations + swapped)]
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


def _reading_residuals(powers: list[TruncatedSeries], coeff_list: list[TruncatedSeries], k: int,
                       variants: list[tuple[str, TruncatedSeries]]) -> Readings:
    """One residual reading per (label, coefficient of series**k); coeff_list leaves slot k out.

    The first reading is evaluated in full.  Each other one differs from it only in
    c_k, so its residual is the first plus (c_k - first c_k) * series**k, a product
    with a sparse left factor.
    """
    (label, ck), *others = variants
    first = _polynomial_residual(powers, coeff_list[:k] + [ck] + coeff_list[k:])
    residuals = [(label, first)]
    residuals += [(other, first + (other_ck - ck) * powers[k - 1]) for other, other_ck in others]
    zero = TruncatedSeries.zero(first.order)
    return [(label, [("residual", res, zero)]) for label, res in residuals]


def _algebraic_readings(name: str, order: int) -> Readings:
    coeffs = load_appendix_coefficients()

    def cs(*keys: str) -> list[TruncatedSeries]:
        return [coefficient_series(coeffs, key, order) for key in keys]

    if name == "alg:gf1":
        return _reading_residuals(
            _powers(families.series("G", order), 4),
            cs("alg_gf1_a0", "alg_gf1_a1", "alg_gf1_a3", "alg_gf1_a4"),
            2,
            list(zip(("literal", "alpha2 minus 8t^2xy"), cs("alg_gf1_a2", "alg_gf1_a2_minus_8t2xy"))),
        )
    if name == "thm1.6i":
        powers = _powers(families.series("A", order), 4)
        r0, r1, r2, r3, c4 = cs("quartic_r0", "quartic_r1", "quartic_r2", "quartic_r3", "quartic_c4")
        residual = _polynomial_residual(powers, [r0, r1, r2, -r3, c4])
        return [("literal", [("residual", residual, TruncatedSeries.zero(order))])]
    if name == "alg:gf2":
        return _reading_residuals(
            _powers(families.series("M", order), 6),
            cs("alg_gf2_b0", *(f"alg_gf2_b{k}" for k in range(2, 7))),
            1,
            list(zip(("beta1 t^11 (literal)", "beta1 t^10", "beta1 t^10 minus x^2t"),
                     cs("alg_gf2_b1_literal", "alg_gf2_b1_t10", "alg_gf2_b1_t10_minus_x2t"))),
        )
    if name == "bbs":
        return _reading_residuals(
            _powers(families.series("B", order), 2),
            cs("bbs_q0", "bbs_q2"),
            1,
            list(zip(("2t^2x", "2tx"), cs("bbs_lin_t2x", "bbs_lin_tx"))),
        )
    raise ValueError(f"unknown algebraic system: {name}")


def system_readings(name: str, order: int) -> Readings:
    """All candidate readings of one identity system, each with its equations."""
    if name not in SYSTEMS:
        raise ValueError(f"unknown system: {name}")
    if name == "lem3.1" or name.startswith("eq:"):
        return _functional_readings(name, order)
    return _algebraic_readings(name, order)
