"""Power series in t truncated at a fixed order, with Laurent-polynomial coefficients."""

from __future__ import annotations

from typing import Iterable

from catschett.serieslab.laurent import LaurentPoly2


class TruncatedSeries:
    """Series sum_{k=0}^{order} c_k(x, y) t^k; arithmetic discards t-degrees above order.

    ``coeffs`` holds exactly order + 1 polynomials, and a series combines only
    with a series of the same order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[LaurentPoly2]):
        self.order = order
        self.coeffs = list(coeffs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, [LaurentPoly2.zero()] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        cs = [LaurentPoly2.one()] + [LaurentPoly2.zero()] * order
        return cls(order, cs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def _same_order(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.order != self.order:
            raise ValueError("series orders differ")
        return other

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        o = self._same_order(other)
        return TruncatedSeries(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        o = self._same_order(other)
        return TruncatedSeries(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        o = self._same_order(other)
        # every term product is added straight into its output coefficient's dict,
        # which is cleaned of zeros once
        order = self.order
        sums: list[dict[tuple[int, int], int]] = [{} for _ in range(order + 1)]
        right = [(j, list(b.terms.items())) for j, b in enumerate(o.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            left = list(a.terms.items())
            for j, terms in right:
                if i + j > order:
                    break
                acc = sums[i + j]
                get = acc.get
                for (a1, b1), c1 in left:
                    for (a2, b2), c2 in terms:
                        k = (a1 + a2, b1 + b2)
                        acc[k] = get(k, 0) + c1 * c2
        return TruncatedSeries(order, [LaurentPoly2(acc) for acc in sums])

    def mul_monomial(self, tpow: int, xpow: int = 0, ypow: int = 0) -> "TruncatedSeries":
        """Multiply by t^tpow * x^xpow * y^ypow (tpow >= 0)."""
        out = [LaurentPoly2.zero() for _ in range(self.order + 1)]
        for k in range(self.order + 1 - tpow):
            p = self.coeffs[k]
            if p:
                out[k + tpow] = p.shift(xpow, ypow)
        return TruncatedSeries(self.order, out)

    def swap_xy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [c.swap_xy() for c in self.coeffs])

    def coefficient(self, k: int) -> LaurentPoly2:
        return self.coeffs[k]

    def first_nonzero(self) -> tuple[int, LaurentPoly2] | None:
        """Lowest t-order with a nonzero coefficient, or None for the zero series."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k, c
        return None

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, nonzero={sum(1 for c in self.coeffs if c)})"


def geometric_t2(order: int) -> TruncatedSeries:
    """The series 1 / (1 - t^2) = sum_k t^{2k}, truncated."""
    cs = [
        LaurentPoly2.one() if k % 2 == 0 else LaurentPoly2.zero()
        for k in range(order + 1)
    ]
    return TruncatedSeries(order, cs)
