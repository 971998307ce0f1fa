"""Exact Laurent polynomials in two variables with integer coefficients."""

from __future__ import annotations

from typing import Mapping


class LaurentPoly2:
    """Immutable map from (x exponent, y exponent) to a nonzero integer coefficient.

    Every instance is built inside the program from int-keyed int terms, so the
    constructor only drops zero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> "LaurentPoly2":
        return cls({(a, b): c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly2(out)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly2(out)

    def shift(self, a: int, b: int) -> "LaurentPoly2":
        """Multiply by the monomial x^a y^b."""
        return LaurentPoly2({(p + a, q + b): c for (p, q), c in self.terms.items()})

    def swap_xy(self) -> "LaurentPoly2":
        """Exchange the two variables."""
        return LaurentPoly2({(b, a): c for (a, b), c in self.terms.items()})

    def subs_y_one(self) -> "LaurentPoly2":
        """Set y = 1."""
        out: dict[tuple[int, int], int] = {}
        for (a, _), c in self.terms.items():
            out[(a, 0)] = out.get((a, 0), 0) + c
        return LaurentPoly2(out)

    def subs_y_x(self) -> "LaurentPoly2":
        """Set y = x."""
        out: dict[tuple[int, int], int] = {}
        for (a, b), c in self.terms.items():
            out[(a + b, 0)] = out.get((a + b, 0), 0) + c
        return LaurentPoly2(out)

    def eval_ones(self) -> int:
        """Evaluate at x = y = 1."""
        return sum(self.terms.values())

    def coefficient(self, a: int, b: int) -> int:
        return self.terms.get((a, b), 0)

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """Terms as (x exponent, y exponent, coefficient), ordered for stable output."""
        return [(a, b, self.terms[(a, b)]) for a, b in sorted(self.terms)]

    def min_exponents(self) -> tuple[int, int]:
        """Componentwise minima of the exponent pairs (0, 0) when empty."""
        if not self.terms:
            return (0, 0)
        return (min(a for a, _ in self.terms), min(b for _, b in self.terms))

    def __str__(self) -> str:
        terms = sorted(self.sorted_terms(), key=lambda t: (-(t[0] + t[1]), -t[0]))
        if not terms:
            return "0"
        parts: list[str] = []
        for a, b, c in terms:
            factors: list[str] = []
            if a == 1:
                factors.append("x")
            elif a != 0:
                factors.append(f"x^{a}")
            if b == 1:
                factors.append("y")
            elif b != 0:
                factors.append(f"y^{b}")
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            mono = "*".join(factors)
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.terms!r})"
