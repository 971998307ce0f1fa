"""Series laboratory: exact ring operations, frozen coefficients, residual systems."""

import pathlib
import subprocess
import sys

import pytest

from catschett.objects.permutations import catalan
from catschett.serieslab import families, residuals
from catschett.serieslab.laurent import LaurentPoly2
from catschett.serieslab.series import TruncatedSeries, geometric_t2


def mono(a, b, c=1):
    return LaurentPoly2.monomial(a, b, c)


def t_power(order, k, coeff):
    cs = [LaurentPoly2.zero()] * (order + 1)
    cs[k] = coeff
    return TruncatedSeries(order, cs)


def test_laurent_arithmetic():
    x = mono(1, 0)
    y = mono(0, 1)
    assert x * y == mono(1, 1)
    assert (x + y) - y == x
    assert x - x == LaurentPoly2.zero()
    assert (x + y) * (x + y) == mono(2, 0) + mono(1, 1, 2) + mono(0, 2)
    assert x.swap_xy() == y
    assert mono(2, 3).swap_xy().swap_xy() == mono(2, 3)


def test_laurent_negative_exponents():
    inv_x = mono(-1, 0)
    assert inv_x * mono(1, 0) == LaurentPoly2.one()
    assert inv_x.min_exponents()[0] == -1


def test_laurent_substitutions():
    p = mono(2, 1, 3) + mono(0, 2)
    assert p.subs_y_one() == mono(2, 0, 3) + mono(0, 0)
    assert p.subs_y_x() == mono(3, 0, 3) + mono(2, 0)
    assert p.eval_ones() == 4


def test_series_monomial_product():
    tx = t_power(6, 1, mono(1, 0))
    ty = t_power(6, 1, mono(0, 1))
    prod = tx * ty
    assert prod.coefficient(2) == mono(1, 1)
    assert prod.first_nonzero() == (2, mono(1, 1))


def test_series_geometric_inverse():
    geo = geometric_t2(10)
    one = TruncatedSeries.one(10)
    t2 = t_power(10, 2, LaurentPoly2.one())
    assert geo * (one - t2) == one


def test_series_swap_involution():
    g = families.compute_G(6)
    assert g.swap_xy().swap_xy() == g


def test_frozen_series_coefficients():
    g = families.compute_G(4)
    assert g.coefficient(1) == mono(1, 0)
    assert g.coefficient(2) == mono(2, 0) + mono(0, 1)
    assert g.coefficient(3) == mono(1, 0) + mono(1, 1, 4)
    m = families.compute_M(3)
    assert m.coefficient(3) == LaurentPoly2.one() + mono(1, 0) + mono(0, 1, 3)


def test_series_specializes_to_catalan():
    g = families.compute_G(9)
    for k in range(1, 10):
        assert g.coefficient(k).eval_ones() == catalan(k)


def test_route_equality_for_main_series():
    assert families.compute_G(9, source="perm") == families.compute_G(9, source="dyck")
    assert families.compute_M(9, source="231") == families.compute_M(9, source="321")


def test_parity_block_decomposition():
    order = 9
    ee, eo, oe, oo = families.compute_EE_EO_OE_OO(order)
    total = ee + eo + oe + oo
    for k in range(1, order + 1):
        assert total.coefficient(k).eval_ones() == catalan(k)
    assert ee.coefficient(2) == mono(0, 1)


def test_order_bound_enforced():
    with pytest.raises(ValueError, match="enumeration bound"):
        families.compute_G(99)


def test_appendix_coefficients_checksum():
    coeffs = residuals.load_appendix_coefficients()
    assert "alg_gf1_a0" in coeffs
    assert "alg_gf2_b6" in coeffs


def test_appendix_coefficients_rebuild_from_source_script(tmp_path):
    pytest.importorskip("sympy")
    root = pathlib.Path(__file__).resolve().parent.parent
    dest = tmp_path / "appendix_coefficients.json"
    subprocess.run([sys.executable, str(root / "tools" / "expand_appendix.py"), str(dest)],
                   check=True, capture_output=True)
    packaged = root / "src" / "catschett" / "serieslab" / "appendix_coefficients.json"
    assert dest.read_bytes() == packaged.read_bytes()


def test_first_failure_localizes():
    lhs = t_power(6, 3, mono(2, 1, 5))
    rhs = t_power(6, 3, mono(2, 1, 2))
    loc = residuals.first_failure(lhs, rhs)
    assert loc == {"t_order": 3, "monomial": "x^2*y^1", "lhs": 5, "rhs": 2}


def test_every_system_has_a_passing_reading():
    for name in residuals.FUNCTIONAL_SYSTEMS + residuals.ALGEBRAIC_SYSTEMS:
        outcomes = []
        for label, equations in residuals.system_readings(name, 8):
            outcomes.append(all(lhs == rhs for _, lhs, rhs in equations))
        assert any(outcomes), name


def test_mna_distribution_rows_sum_to_catalan():
    rows = families.mna_distribution(8)
    for n, row in rows.items():
        assert sum(row.values()) == catalan(n)
