"""Series laboratory: exact ring operations, frozen coefficients, residual systems."""

import hashlib
import json
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catschett import cli
from catschett.kernels import marginal, stat_table
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
    g = families.series("G", 6)
    assert g.swap_xy().swap_xy() == g


def test_frozen_series_coefficients():
    g = families.series("G", 4)
    assert g.coefficient(1) == mono(1, 0)
    assert g.coefficient(2) == mono(2, 0) + mono(0, 1)
    assert g.coefficient(3) == mono(1, 0) + mono(1, 1, 4)
    m = families.series("M", 3)
    assert m.coefficient(3) == LaurentPoly2.one() + mono(1, 0) + mono(0, 1, 3)


def test_series_specializes_to_catalan():
    g = families.series("G", 9)
    for k in range(1, 10):
        assert g.coefficient(k).eval_ones() == catalan(k)


def test_route_equality_for_main_series():
    # G over 321-avoiders against the four Dyck-segment blocks, which split compdyck
    ee, eo, oe, oo = (families.series(name, 9) for name in ("EE", "EO", "OE", "OO"))
    assert families.series("G", 9) == ee + eo + oe + oo
    lpk = itemgetter(0, 1)
    for n in range(10):
        assert marginal(stat_table("lpkpk231", n), lpk) == marginal(stat_table("lpk321", n), lpk), n


def test_parity_block_decomposition():
    order = 9
    ee, eo, oe, oo = (families.series(name, order) for name in ("EE", "EO", "OE", "OO"))
    total = ee + eo + oe + oo
    for k in range(1, order + 1):
        assert total.coefficient(k).eval_ones() == catalan(k)
    assert ee.coefficient(2) == mono(0, 1)


def test_order_bound_enforced():
    with pytest.raises(ValueError, match="enumeration bound"):
        families.series("G", 99)
    with pytest.raises(ValueError, match="unknown series"):
        families.series("Z", 4)


def test_marginal_drops_none_keys():
    rows = {(0, 1): 2, (1, 1): 3, (2, 0): 5, (3, 0): 7}
    assert marginal(rows, lambda k: k[1] or None) == {1: 5}
    assert marginal(rows, lambda k: k[0] % 2) == {0: 7, 1: 10}
    assert marginal({}, lambda k: k) == {}


# sha256 of the lines "<k> <sorted_terms of [t^k]>" for k = 0..12, recorded when each
# series had its own builder
SERIES_DIGESTS = {
    "G": "184b1ac257b9d16cf4ac36362889b470015a5edb93fbd65b0139d0343e73a23e",
    "EE": "5fcadccdd24ec21ab64c1d3c8cc62ac6f3f163ed75ca51d465997842af58f2d0",
    "EO": "05486f13b980a99e75b23d627eaf4d140b7b068812ccd6e69ab3528b08a12159",
    "OE": "05486f13b980a99e75b23d627eaf4d140b7b068812ccd6e69ab3528b08a12159",
    "OO": "ac70ae7d73b107bf624752a1ceb4d8e871af1a50a09b92488e3c371738fe6e2a",
    "M": "819d3419f5e6c21dcb6373239a9092f9c4666aba0ed13458ea79e198ac826280",
    "LE": "3f5310adb3909b10152f7289de5d5d8bf3ce9a8de6d53d3a9327a67f3a84604c",
    "LO": "cd14064ce2fbf9b783d16875d901d0bfe560e38d34847b7a3e026eae4c99bff8",
    "E": "0a0c1fea875134de01d90ac285775b9c65d95f386a1a947eddb20c85f12481b6",
    "O": "88fccfedbc03ec925156f2d053e49f3f1dfff0281f2f79a8002802bbfa08f3ff",
    "A": "c239d7dee6f35ea18efe6ffba9b0e930f763f1dad9dbf138a64de593afe30d2c",
    "B": "e0cc7706e5e5b55726056d4ed3330a76f67acf6921519f22bf66010d3baef5da",
}

# sha256 of repr(mna_distribution(12)), recorded at the same point
MNA_DIGEST = "e49dac0cb378fce4b95e92d1137a000a804e50efea0a4e5248940b793c3e419c"


def test_series_coefficients_are_pinned():
    assert tuple(SERIES_DIGESTS) == tuple(families.SERIES)
    for name, expected in SERIES_DIGESTS.items():
        s = families.series(name, 12)
        text = "\n".join(f"{k} {s.coefficient(k).sorted_terms()}" for k in range(13))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, name
    mna = repr(families.mna_distribution(12))
    assert hashlib.sha256(mna.encode()).hexdigest() == MNA_DIGEST


def test_cli_series_names_follow_the_registry():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    name = next(a for a in sub.choices["series"]._actions if a.dest == "name")
    assert tuple(name.choices) == tuple(families.SERIES) == tuple(SERIES_DIGESTS)


# sha256 of the rows a computer-algebra expansion of the same transcription once shipped as data
APPENDIX_DIGEST = "3481cb4f261920ac3d8afa16debc572a3dc4f4ae113456564e6bfc3151f00218"


def test_appendix_coefficients_are_pinned():
    coeffs = residuals.load_appendix_coefficients()
    assert set(coeffs) == {
        "alg_gf1_a0", "alg_gf1_a1", "alg_gf1_a2", "alg_gf1_a2_minus_8t2xy", "alg_gf1_a3", "alg_gf1_a4",
        "alg_gf2_b0", "alg_gf2_b1_literal", "alg_gf2_b1_t10", "alg_gf2_b1_t10_minus_x2t",
        "alg_gf2_b2", "alg_gf2_b3", "alg_gf2_b4", "alg_gf2_b5", "alg_gf2_b6",
        "quartic_c4", "quartic_r0", "quartic_r1", "quartic_r2", "quartic_r3",
        "bbs_lin_t2x", "bbs_lin_tx", "bbs_q0", "bbs_q2",
    }
    payload = json.dumps({key: [list(row) for row in rows] for key, rows in coeffs.items()},
                         sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == APPENDIX_DIGEST
    # expanded once per process and shared read-only
    assert residuals.load_appendix_coefficients() is coeffs
    with pytest.raises(TypeError):
        coeffs["alg_gf1_a0"] = ()
    with pytest.raises(TypeError):
        coeffs["alg_gf1_a0"][0] = (0, 0, 0, 0)
    with pytest.raises(TypeError):
        coeffs["alg_gf1_a0"][0][3] = 0


def test_first_failure_localizes():
    lhs = t_power(6, 3, mono(2, 1, 5))
    rhs = t_power(6, 3, mono(2, 1, 2))
    loc = residuals.first_failure(lhs, rhs)
    assert loc == {"t_order": 3, "monomial": "x^2*y^1", "lhs": 5, "rhs": 2}


def test_every_system_has_a_passing_reading():
    for name in residuals.SYSTEMS:
        outcomes = []
        for label, equations in residuals.system_readings(name, 8):
            outcomes.append(all(lhs == rhs for _, lhs, rhs in equations))
        assert any(outcomes), name


def test_mna_distribution_rows_sum_to_catalan():
    rows = families.mna_distribution(8)
    for n, row in rows.items():
        assert sum(row.values()) == catalan(n)


@pytest.mark.parametrize("terms, text", [
    ({(2, 0): -3, (0, 0): 1}, "-3*x^2 + 1"),
    ({(1, 1): 2, (0, 1): -1}, "2*x*y - y"),
    ({(1, 1): -1}, "-x*y"),
    ({(3, 2): 1, (1, 0): -1, (0, 2): 1}, "x^3*y^2 + y^2 - x"),
    ({(0, 0): 7}, "7"),
    ({(0, 0): -1}, "-1"),
    ({(1, 0): 1, (0, 0): -1}, "x - 1"),
    ({(-1, 2): 1, (0, 0): 2, (1, -3): -4}, "x^-1*y^2 + 2 - 4*x*y^-3"),
    ({}, "0"),
    ({(1, 0): 0}, "0"),
], ids=["negative-lead", "negative-later", "unit-negative-lead", "unit-coefficients", "constant",
        "negative-constant", "constant-later", "negative-exponents", "zero", "zero-coefficient"])
def test_polynomial_text(terms, text):
    assert str(LaurentPoly2(terms)) == text


# Differential tests of the ring against plain Counter arithmetic.

exponents = st.integers(-3, 3)
term_dicts = st.dictionaries(st.tuples(exponents, exponents), st.integers(-3, 3), max_size=6)


@st.composite
def term_pairs(draw):
    """Two term dicts, the second repeating some of the first's terms negated, so sums cancel."""
    p = draw(term_dicts)
    q = draw(term_dicts)
    if p:
        for k in draw(st.lists(st.sampled_from(sorted(p)), unique=True)):
            q[k] = -p[k]
    return p, q


def clean(counts) -> dict:
    return {k: c for k, c in counts.items() if c}


def oracle_product(p, q) -> Counter:
    out = Counter()
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            out[(a1 + a2, b1 + b2)] += c1 * c2
    return out


def assert_terms(poly, expected):
    assert 0 not in poly.terms.values()
    assert poly.terms == clean(expected)


@given(term_pairs())
def test_ring_matches_counter_oracle(pair):
    p, q = pair
    lp, lq = LaurentPoly2(p), LaurentPoly2(q)
    assert_terms(lp, p)
    total = Counter(p)
    total.update(q)
    assert_terms(lp + lq, total)
    difference = Counter(p)
    difference.subtract(q)
    assert_terms(lp - lq, difference)
    assert_terms(lp - lp, {})
    assert_terms(-lp, {k: -c for k, c in p.items()})
    assert_terms(lp * lq, oracle_product(p, q))


@given(term_dicts, exponents, exponents)
def test_substitutions_match_counter_oracle(p, a, b):
    lp = LaurentPoly2(p)
    assert_terms(lp.shift(a, b), {(x + a, y + b): c for (x, y), c in p.items()})
    assert_terms(lp.swap_xy(), {(y, x): c for (x, y), c in p.items()})
    y_one, y_x = Counter(), Counter()
    for (x, y), c in p.items():
        y_one[(x, 0)] += c
        y_x[(x + y, 0)] += c
    assert_terms(lp.subs_y_one(), y_one)
    assert_terms(lp.subs_y_x(), y_x)


zero_rows = st.dictionaries(st.tuples(exponents, exponents), st.just(0), max_size=3)


@st.composite
def series_pairs(draw):
    """Two series of one order whose product cancels, with all-zero rows at both ends.

    With f[i + d] = -f[i] and g[m + d] = g[m], the terms f[i] g[m + d] and f[i + d] g[m]
    of [t^(i + m + d)] cancel.
    """
    order = draw(st.integers(0, 4))
    coeffs = st.lists(term_dicts, min_size=order + 1, max_size=order + 1)
    f, g = draw(coeffs), draw(coeffs)
    if order:
        d = draw(st.integers(1, order))
        i, m = draw(st.integers(0, order - d)), draw(st.integers(0, order - d))
        f[i + d] = {k: -c for k, c in f[i].items()}
        g[m + d] = dict(g[m])
    for rows in (f, g):
        low = draw(st.integers(0, min(2, order + 1)))
        high = draw(st.integers(0, min(2, order + 1 - low)))
        for k in (*range(low), *range(order + 1 - high, order + 1)):
            rows[k] = draw(zero_rows)
    return order, f, g


def as_series(order, coeffs):
    return TruncatedSeries(order, [LaurentPoly2(c) for c in coeffs])


@settings(deadline=None)
@given(series_pairs(), st.integers(0, 5), exponents, exponents)
def test_series_products_match_truncated_convolution(pair, tpow, xpow, ypow):
    order, f, g = pair
    product = as_series(order, f) * as_series(order, g)
    for k in range(order + 1):
        expected = Counter()
        for i in range(k + 1):
            expected.update(oracle_product(f[i], g[k - i]))
        assert_terms(product.coefficient(k), expected)
    shifted = as_series(order, f).mul_monomial(tpow, xpow, ypow)
    for k in range(order + 1):
        expected = {} if k < tpow else {(x + xpow, y + ypow): c for (x, y), c in f[k - tpow].items()}
        assert_terms(shifted.coefficient(k), expected)


def test_series_orders_must_agree():
    low, high = TruncatedSeries.one(3), TruncatedSeries.one(4)
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="series orders differ"):
            combine(low, high)
        with pytest.raises(ValueError, match="series orders differ"):
            combine(high, low)
