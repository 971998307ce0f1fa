"""Exact Laurent polynomials in two variables with integer coefficients."""

from __future__ import annotations

from typing import Mapping


class LaurentPoly2:
    """Immutable map from (x exponent, y exponent) to a nonzero integer coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (a, b), c in terms.items():
                if c:
                    clean[(int(a), int(b))] = clean.get((int(a), int(b)), 0) + int(c)
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> "LaurentPoly2":
        return cls({(a, b): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other) -> "LaurentPoly2":
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other})
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly2(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly2":
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other})
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly2":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly2":
        if isinstance(other, int):
            return LaurentPoly2({k: c * other for k, c in self.terms.items()})
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly2(out)

    __rmul__ = __mul__

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
        if not self.terms:
            return "0"
        chunks = []
        for a, b, c in self.sorted_terms():
            body = []
            if a:
                body.append("x" if a == 1 else f"x^{a}")
            if b:
                body.append("y" if b == 1 else f"y^{b}")
            if not body:
                chunks.append(str(c))
                continue
            head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
            chunks.append(head + "*".join(body))
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.terms!r})"
