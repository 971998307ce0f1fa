"""Expand the coefficient polynomials of the published algebraic equations to canonical monomial lists.

The degree-4 equation for G(t,x,y), the degree-6 equation for M(t,x,y), the
quartic for A(t,x) = G(t,x,1), and the quadratic for the ascending-run
enumerator B(t,x) = G(t,x,x) all have coefficients given in factored form.
This module transcribes those factored forms and expands them in exact integer
arithmetic at import into ``COEFFICIENTS``, holding each coefficient as a sorted
tuple of (t-degree, x-degree, y-degree, integer) rows, so the transcription is
reviewable as code.

Multiple readings are kept wherever the printed source is ambiguous or fails
the residual test against the enumerated series:
  * the degree-6 equation's linear coefficient has a second term printed
    with the factor "t^10 t" — transcribed literally as t^11 and
    alternatively as t^10 (the degree-descending term order suggests t^10);
  * that same coefficient, under exact division of the remaining equation by
    the series M, recovers uniquely with an extra -x^2 t monomial relative to
    the printed t-linear term, so a third reading carries that variant;
  * the degree-4 equation's literal residual equals 8 t^2 x y G^2 exactly
    through order 12, so a second alpha_2 reading drops an 8 t^2 x y monomial;
  * the quadratic for B has a linear-coefficient term printed as "2t^x" —
    transcribed both as 2t^2 x and as 2tx.
The library evaluates every reading against enumerated series and reports
which passes; nothing here decides that.
"""

from collections.abc import Mapping
from functools import cache, reduce
from operator import mul
from types import MappingProxyType


class _Poly:
    """Integer polynomial in t, x, y: map from (t, x, y) exponents to a coefficient.

    An int may stand on either side of +, - and *, as it does in the transcription.
    Terms that cancel keep a zero coefficient until ``COEFFICIENTS`` drops them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int], int]):
        self.terms = terms

    def __add__(self, other: "_Poly | int") -> "_Poly":
        terms = dict(self.terms)
        for key, c in _poly(other).terms.items():
            terms[key] = terms.get(key, 0) + c
        return _Poly(terms)

    __radd__ = __add__

    def __sub__(self, other: "_Poly | int") -> "_Poly":
        return _poly(other).__rsub__(self)

    def __rsub__(self, other: "_Poly | int") -> "_Poly":
        return other + self * -1

    def __mul__(self, other: "_Poly | int") -> "_Poly":
        terms: dict[tuple[int, int, int], int] = {}
        right = _poly(other).terms.items()
        for (a, b, c), u in self.terms.items():
            for (d, e, f), v in right:
                key = (a + d, b + e, c + f)
                terms[key] = terms.get(key, 0) + u * v
        return _Poly(terms)

    __rmul__ = __mul__

    @cache  # the same powers of t, x and y recur hundreds of times
    def __pow__(self, k: int) -> "_Poly":
        return reduce(mul, [self] * k)  # k >= 1: the transcription has no zeroth power


def _poly(value: "_Poly | int") -> _Poly:
    return value if isinstance(value, _Poly) else _Poly({(0, 0, 0): value})


t, x, y = _Poly({(1, 0, 0): 1}), _Poly({(0, 1, 0): 1}), _Poly({(0, 0, 1): 1})

alpha4 = t**3 * (t**2 * y**2 + 4 * t * x + 4) * (y * t**2 - t**2 + t * x + 1) ** 2

alpha3 = (
    2
    * t**2
    * (t**2 * y**2 + 4 * t * x + 4)
    * (y * t**2 - t**2 + t * x + 1)
    * (2 * t**3 * y**2 - 2 * t**3 * y + 2 * t**2 * x * y - t * x**2 + t * y**2 + t * y - x)
)

alpha2 = t * (
    6 * y**4 * (y - 1) ** 2 * t**8
    + 12 * x * y**2 * (y - 1) * (y**2 + 2 * y - 2) * t**7
    - 2
    * t**6
    * (
        x**4 * y**2
        - 2 * x**2 * y**4
        - 2 * y**6
        - 3 * x**4 * y
        - 23 * x**2 * y**3
        - 2 * y**5
        + 2 * x**4
        + 22 * x**2 * y**2
        - 8 * y**4
        + 24 * y**3
        - 12 * y**2
    )
    - 2
    * t**5
    * x
    * (
        x**4 * y
        + x**2 * y**3
        - 2 * y**5
        - 2 * x**4
        - 12 * y**4
        - 14 * x**2 * y
        - 28 * y**3
        + 4 * x**2
        + 36 * y**2
    )
    + t**4
    * (
        x**4 * y**2
        - 2 * x**2 * y**4
        + y**6
        - 21 * x**4 * y
        + 15 * x**2 * y**3
        + 2 * y**5
        + 11 * x**4
        + 11 * x**2 * y**2
        + 21 * y**4
        + 38 * x**2 * y
        + 10 * y**3
        - 4 * x**2
        - 28 * y**2
    )
    + t**3
    * x
    * (5 * x**4 + 2 * y**4 + 26 * y**3 + 10 * x**2 + 18 * y**2 + 16 * y - 7 * x**2 * y**2 - 44 * x**2 * y)
    + t**2 * (15 * x**4 - 18 * x**2 * y**2 + 4 * y**4 - 33 * x**2 * y + 9 * y**3 + 3 * x**2 + 9 * y**2)
    + t * x * (15 * x**2 - 11 * y**2)
    + 5 * x**2
    - y**2
)

alpha1 = (
    2 * t**3 * y**2 - 2 * t**3 * y + 2 * t**2 * x * y - t * x**2 + t * y**2 + t * y - x
) * (
    2 * y**4 * (y - 1) * t**6
    + 2 * x * y**2 * (y**2 + 4 * y - 4) * t**5
    - 2 * t**4 * (x**4 * y - x**2 * y**3 - 2 * x**4 - 2 * x**2 * y**2 - y**4 - 4 * y**3 + 4 * y**2)
    - 4 * x * (x**2 * y - y**3 - 2 * x**2 - 2 * y**2) * t**3
    + t**2 * (x**4 - x**2 * y**2 - 2 * x**2 * y + 2 * y**3 + 4 * x**2 + 4 * y**2)
    + 2 * t * x * (x - y) * (x + y)
    + x**2
    - y**2
)

alpha0 = t * (
    t**8 * y**8
    - 2 * t**8 * y**7
    + 2 * t**7 * x * y**7
    + t**8 * y**6
    + 2 * t**7 * x * y**6
    - 2 * t**6 * x**4 * y**4
    + 3 * t**6 * x**2 * y**6
    - 8 * t**7 * x * y**5
    + 6 * t**6 * x**4 * y**3
    + 2 * t**6 * x**2 * y**5
    + 2 * t**6 * y**7
    - 2 * t**5 * x**5 * y**3
    + 2 * t**5 * x**3 * y**5
    + 4 * t**7 * x * y**4
    - 4 * t**6 * x**4 * y**2
    - 4 * t**6 * x**2 * y**4
    + 2 * t**6 * y**6
    + 4 * t**5 * x**5 * y**2
    - 4 * t**5 * x**3 * y**4
    + 6 * t**5 * x * y**6
    + t**4 * x**8
    - 2 * t**4 * x**6 * y**2
    + t**4 * x**4 * y**4
    - 8 * t**6 * y**5
    + 12 * t**5 * x**3 * y**3
    + 4 * t**5 * x * y**5
    - 5 * t**4 * x**4 * y**3
    + 5 * t**4 * x**2 * y**5
    + 4 * t**6 * y**4
    - 8 * t**5 * x**3 * y**2
    - 8 * t**5 * x * y**4
    + 11 * t**4 * x**4 * y**2
    - t**4 * x**2 * y**4
    + 3 * t**4 * y**6
    + 4 * t**3 * x**7
    - 7 * t**3 * x**5 * y**2
    + 3 * t**3 * x**3 * y**4
    + 6 * t**4 * x**2 * y**3
    + 2 * t**4 * y**5
    - 4 * t**3 * x**3 * y**3
    + 4 * t**3 * x * y**5
    - 4 * t**4 * x**2 * y**2
    - 4 * t**4 * y**4
    + 10 * t**3 * x**3 * y**2
    + 2 * t**3 * x * y**4
    + 6 * t**2 * x**6
    - 9 * t**2 * x**4 * y**2
    + 3 * t**2 * x**2 * y**4
    - t**2 * x**2 * y**3
    + t**2 * y**5
    + 3 * t**2 * x**2 * y**2
    + t**2 * y**4
    + 4 * t * x**5
    - 5 * t * x**3 * y**2
    + t * x * y**4
    + x**4
    - x**2 * y**2
)

beta6 = t**5 * (x - y) * (t**2 * x * y - t**2 * x - t**2 * y + t**2 - 1) ** 3

beta5 = (
    t**4
    * (
        x**3 * t**3
        + 4 * x**2 * y * t**3
        - 5 * x * y**2 * t**3
        - 7 * x**2 * t**3
        + 2 * x * y * t**3
        + 5 * y**2 * t**3
        + 6 * x * t**3
        - 6 * y * t**3
        - x**2 * t**2
        + 2 * x * y * t**2
        - y**2 * t**2
        - x**2 * t
        + 5 * x * y * t
        - 5 * x * t
        + y * t
        + x
        - 5 * y
    )
    * (x * y * t**2 - x * t**2 - y * t**2 + t**2 - 1) ** 2
)

beta4 = (
    t**3
    * (x * y * t**2 - x * t**2 - y * t**2 + t**2 - 1)
    * (
        5 * x**4 * y * t**6
        + 5 * x**3 * y**2 * t**6
        - 10 * x**2 * y**3 * t**6
        - 5 * x**4 * t**6
        - 30 * x**3 * y * t**6
        + 15 * x**2 * y**2 * t**6
        + 20 * x * y**3 * t**6
        + 25 * x**3 * t**6
        + 30 * x**2 * y * t**6
        - 45 * x * y**2 * t**6
        - 10 * y**3 * t**6
        - 4 * x**3 * y * t**5
        + 8 * x**2 * y**2 * t**5
        - 4 * x * y**3 * t**5
        - 35 * x**2 * t**6
        + 10 * x * y * t**6
        + 25 * y**2 * t**6
        + 4 * x**3 * t**5
        - 4 * x**2 * y * t**5
        - 4 * x * y**2 * t**5
        + 4 * y**3 * t**5
        + 22 * x**2 * y**2 * t**4
        - 2 * x * y**3 * t**4
        + 15 * x * t**6
        - 15 * y * t**6
        - 4 * x**2 * t**5
        + 8 * x * y * t**5
        - 4 * y**2 * t**5
        - 5 * x**3 * t**4
        - 44 * x**2 * y * t**4
        - 13 * x * y**2 * t**4
        + 2 * y**3 * t**4
        + 37 * x**2 * t**4
        + 32 * x * y * t**4
        - 9 * y**2 * t**4
        - 4 * x**2 * y * t**3
        - 12 * x * y**2 * t**3
        - 32 * x * t**4
        + 12 * y * t**4
        + 8 * x**2 * t**3
        + 8 * x * y * t**3
        + 16 * y**2 * t**3
        - 6 * x**2 * y * t**2
        + 2 * x * y**2 * t**2
        - 4 * x * t**3
        - 12 * y * t**3
        + 2 * x**2 * t**2
        - 10 * x * y * t**2
        - 4 * y**2 * t**2
        + 11 * x * t**2
        + 5 * y * t**2
        + 16 * x * y * t
        - 4 * x * t
        + 4 * y * t
        - 2 * x
        - 10 * y
    )
)

beta3 = 2 * t**2 * (
    5 * t**9 * (y - 1) ** 2 * (x - 1) ** 3 * (x - 2 + y) * (x - y)
    - 3 * t**8 * (y - 1) ** 2 * (x - 1) ** 2 * (x - y) ** 2
    + t**7
    * (y - 1)
    * (x - 1) ** 2
    * (6 * x**2 * y + 17 * x * y**2 - 3 * y**3 - 16 * x**2 - 36 * x * y + 12 * y**2 + 39 * x - 19 * y)
    - t**6
    * (y - 1)
    * (x - 1)
    * (10 * x**2 * y + x * y**2 + y**3 - 16 * x**2 + 2 * x * y - 10 * y**2 + 9 * x + 3 * y)
    - t**5
    * (x - 1)
    * (
        x**3 * y
        + 9 * x**2 * y**2
        - 6 * x * y**3
        - x**3
        - 2 * x**2 * y
        + 28 * x * y**2
        + 3 * y**3
        - 12 * x**2
        - 53 * x * y
        - 3 * y**2
        + 41 * x
        - 5 * y
    )
    + t**4
    * (
        5 * x**3 * y
        + 17 * x**2 * y**2
        - 2 * x * y**3
        - 5 * x**3
        - 18 * x**2 * y
        - 16 * x * y**2
        + 3 * y**3
        - 2 * x**2
        + 21 * x * y
        - 7 * y**2
        + 3 * x
        + y
    )
    + t**3
    * (x**3 * y - 3 * x**2 * y**2 - 6 * x * y**2 + 13 * x**2 + 16 * x * y + 9 * y**2 - 23 * x - 7 * y)
    - t**2 * (5 * x**2 * y - 3 * x * y**2 + 13 * x * y + 3 * y**2 + x - 7 * y)
    + t * (x**2 + 9 * x * y + 3 * x + 3 * y)
    - x
    - 5 * y
)

beta2 = t * (
    5 * t**10 * (y - 1) ** 2 * (x - 1) ** 3 * (2 * x + y - 3) * (x - y)
    - 4 * t**9 * (y - 1) ** 2 * (x - 1) ** 2 * (x - y) ** 2
    + t**8
    * (y - 1)
    * (x - 1) ** 2
    * (26 * x**2 * y + 20 * x * y**2 - 6 * y**3 - 46 * x**2 - 57 * x * y + 23 * y**2 + 77 * x - 37 * y)
    - 4
    * t**7
    * (y - 1)
    * (x - 1)
    * (6 * x**2 * y - 3 * x * y**2 + y**3 - 8 * x**2 + 2 * x * y - 2 * y**2 + 5 * x - y)
    - t**6
    * (x - 1)
    * (
        6 * x**3 * y
        + 12 * x**2 * y**2
        - 19 * x * y**3
        + y**4
        - 6 * x**3
        + 28 * x**2 * y
        + 57 * x * y**2
        + y**3
        - 50 * x**2
        - 124 * x * y
        + 14 * y**2
        - 26 * y
        + 106 * x
    )
    + 4
    * t**5
    * (
        5 * x**3 * y
        + 3 * x**2 * y**2
        - 5 * x**3
        - 4 * x**2 * y
        - 8 * x * y**2
        + y**3
        + 7 * x * y
        + y**2
        + 3 * x
        - 3 * y
    )
    + t**4
    * (
        -14 * x**2 * y**2
        + 2 * x * y**3
        + 6 * x**3
        + 3 * x * y**2
        - 5 * y**3
        + 40 * x**2
        + 16 * x * y
        + 12 * y**2
        - 66 * x
        + 6 * y
    )
    - 4 * t**3 * (x**2 * y - 3 * x * y**2 + 4 * x**2 + 7 * x * y + y**2 - 3 * x - 3 * y)
    + t**2 * (5 * x**2 * y - x * y**2 + 3 * x**2 + 10 * x * y - y**2 + 23 * x - 7 * y)
    + t * (-8 * x * y - 4 * x - 4 * y)
    - x
    + 5 * y
)


def beta1_with_second_term(second_term_power: int):
    """The linear coefficient of the degree-6 equation; its second term is printed 't^10 t'."""
    return (
        t**11 * (y - 1) ** 2 * (x - 1) ** 3 * (5 * x + y - 6) * (x - y)
        - t**second_term_power * (y - 1) ** 2 * (x - 1) ** 2 * (x - y) ** 2
        + t**9
        * (y - 1)
        * (x - 1) ** 2
        * (21 * x**2 * y + x * y**2 - 2 * y**3 - 31 * x**2 - 22 * x * y + 13 * y**2 + 41 * x - 21 * y)
        - t**8
        * (y - 1)
        * (x - 1)
        * (9 * x**2 * y - 7 * x * y**2 + 2 * y**3 - 11 * x**2 + 4 * x * y - y**2 + 7 * x - 3 * y)
        - t**7
        * (x - 1)
        * (
            6 * x**3 * y
            - 7 * x**2 * y**2
            - 8 * x * y**3
            + y**4
            - 6 * x**3
            + 48 * x**2 * y
            + 28 * x * y**2
            - 6 * y**3
            - 46 * x**2
            - 86 * x * y
            + 28 * y**2
            + 76 * x
            - 28 * y
        )
        + t**6
        * (
            10 * x**3 * y
            - 7 * x**2 * y**2
            + 6 * x * y**3
            - y**4
            - 10 * x**3
            + 8 * x**2 * y
            - 14 * x * y**2
            - 2 * x**2
            + 2 * x * y
            + 8 * y**2
            + 8 * x
            - 8 * y
        )
        - t**5
        * (
            4 * x**3 * y
            + 7 * x**2 * y**2
            - 3 * x * y**3
            - 10 * x**3
            + 8 * x**2 * y
            + x * y**2
            + y**3
            - 28 * x**2
            - 22 * x * y
            + 6 * y**2
            + 54 * x
            - 18 * y
        )
        + t**4 * (4 * x**2 * y + 3 * x * y**2 + y**3 - 14 * x**2 - 4 * x * y - 6 * y**2 + 6 * x + 6 * y)
        + t**3 * (x**3 + 2 * x**2 * y - 3 * x * y**2 + 5 * x**2 + 4 * x * y - y**2 + 14 * x - 6 * y)
        - t**2 * (x**2 - y**2 + 8 * x)
        + t * (x * y - x + y)
        + x
        - y
    )


beta0 = t * (
    t**10 * (y - 1) ** 2 * (x - 1) ** 4 * (x - y)
    + t**8
    * (y - 1)
    * (x - 1) ** 2
    * (6 * x**2 * y - 2 * x * y**2 - 8 * x**2 - 3 * x * y + 3 * y**2 + 9 * x - 5 * y)
    - t**6
    * (x - 1)
    * (
        2 * x**3 * y
        - 7 * x**2 * y**2
        + x * y**3
        - 2 * x**3
        + 22 * x**2 * y
        + 3 * x * y**2
        - 3 * y**3
        - 16 * x**2
        - 24 * x * y
        + 12 * y**2
        + 22 * x
        - 10 * y
    )
    - t**4
    * (
        2 * x**3 * y
        - 2 * x**2 * y**2
        - 4 * x**3
        + 14 * x**2 * y
        - x * y**2
        - y**3
        - 14 * x**2
        - 14 * x * y
        + 8 * y**2
        + 22 * x
        - 10 * y
    )
    + t**2 * (x**3 - x**2 * y + 2 * x**2 - 4 * x * y + 2 * y**2 + 9 * x - 5 * y)
    - x
    + y
)

# Quartic in A(t,x) = G(t,x,1), arranged as c4*A^4 - r3*A^3 + r2*A^2 + r1*A + r0 = 0.
quartic_c4 = t**5 + 4 * t**4 * x + 4 * t**3
quartic_r3 = 8 * t**3 * x**2 + 8 * t**2 * x - 4 * t**5 - 14 * t**4 * x - 16 * t**3
quartic_r2 = (
    6 * t**5
    + 2 * t**4 * x**3
    + 18 * t**4 * x
    + 22 * t**3
    + 5 * t**2 * x**3
    + 5 * t * x**2
    - 13 * t**3 * x**2
    - 17 * t**2 * x
    - t
)
quartic_r1 = (
    4 * t**5
    + 4 * t**4 * x**3
    + 10 * t**4 * x
    + 12 * t**3
    + 3 * t * x**2
    + x
    - 2 * t**3 * x**4
    - 2 * t**3 * x**2
    - 8 * t**2 * x
    - t * x**4
    - 2 * t
    - x**3
)
quartic_r0 = (
    t**5
    + 2 * t**4 * x**3
    + 2 * t**4 * x
    + t**3 * x**6
    + 3 * t**3 * x**2
    + 2 * t**3
    + 2 * t**2 * x**5
    + t**2 * x
    + t * x**4
    - 2 * t**3 * x**4
    - 3 * t**2 * x**3
    - t * x**2
)

# Quadratic q2*B^2 + lin*B + q0 = 0 for B(t,x) = G(t,x,x); the printed linear
# coefficient 2t^2x^2 - 2t^x + 2xt - x has the ambiguous middle term.
bbs_q2 = t**2 * x - t**2 + t
bbs_lin_t2x = 2 * t**2 * x**2 - 2 * t**2 * x + 2 * x * t - x
bbs_lin_tx = 2 * t**2 * x**2 - 2 * t * x + 2 * x * t - x
bbs_q0 = t**2 * x**3 - t**2 * x**2 + t * x**2

POLYNOMIALS = {
    "alg_gf1_a4": alpha4,
    "alg_gf1_a3": alpha3,
    "alg_gf1_a2": alpha2,
    "alg_gf1_a2_minus_8t2xy": alpha2 - 8 * t**2 * x * y,
    "alg_gf1_a1": alpha1,
    "alg_gf1_a0": alpha0,
    "alg_gf2_b6": beta6,
    "alg_gf2_b5": beta5,
    "alg_gf2_b4": beta4,
    "alg_gf2_b3": beta3,
    "alg_gf2_b2": beta2,
    "alg_gf2_b1_literal": beta1_with_second_term(11),
    "alg_gf2_b1_t10": beta1_with_second_term(10),
    "alg_gf2_b1_t10_minus_x2t": beta1_with_second_term(10) - x**2 * t,
    "alg_gf2_b0": beta0,
    "quartic_c4": quartic_c4,
    "quartic_r3": quartic_r3,
    "quartic_r2": quartic_r2,
    "quartic_r1": quartic_r1,
    "quartic_r0": quartic_r0,
    "bbs_q2": bbs_q2,
    "bbs_lin_t2x": bbs_lin_t2x,
    "bbs_lin_tx": bbs_lin_tx,
    "bbs_q0": bbs_q0,
}

# key -> sorted (t, x, y, coefficient) rows, zero terms dropped; read-only and shared
COEFFICIENTS: Mapping[str, tuple[tuple[int, int, int, int], ...]] = MappingProxyType({
    key: tuple(sorted(exps + (c,) for exps, c in poly.terms.items() if c))
    for key, poly in POLYNOMIALS.items()})
