"""Exact univariate polynomial arithmetic over the integers and rationals.

Coefficients are Python ints or ``fractions.Fraction``; floats are rejected
outright so no count can ever pass through floating point.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import lcm, prod

from .values import Value, _as_int

# What the annotations below mean by a coefficient.  They are never
# evaluated, and fractions (and the decimal module it loads) is imported
# only where a rational value can occur, so an all-integer run never loads it.
Coeff = "int | Fraction"


def _as_exact(c) -> Coeff:
    if isinstance(c, int):
        return c
    from fractions import Fraction

    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not an exact integer or Fraction")


class Poly(Value):
    """Polynomial in one variable ``n`` with exact coefficients.

    ``coeffs[i]`` is the coefficient of ``n**i``; trailing zeros are
    stripped and the zero polynomial has an empty coefficient tuple.
    Instances are immutable; equality is coefficient-wise.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = [_as_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        c = _as_exact(other)
        return Poly(tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        out = Poly((1,))
        for _ in range(_as_int(k, "power", least=0)):
            out = out * self
        return out

    def __call__(self, n: Coeff) -> Coeff:
        """Evaluate by Horner's rule at an int or Fraction; a float is a
        ``TypeError``, as it is for a coefficient."""
        n = _as_exact(n)
        acc: Coeff = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def coeff_list(self) -> list[Coeff]:
        """Ascending-power coefficient list, ``[c0, c1, ...]``."""
        return list(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                var = "n" if i == 1 else f"n^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def interpolate(points: Iterable[tuple[Coeff, Coeff]]) -> Poly:
    """Least-degree polynomial through the given points, in exact integer
    arithmetic.

    Lagrange's form over one common denominator.  With the xs scaled by sx,
    the lcm of their denominators, and the ys by sy, p(x) = N(sx * x) /
    (L * sy): over the scaled points, L is the lcm of the basis
    denominators w_j = prod(x_j - x_k for k != j), and N is the sum of
    y_j * (L / w_j) * prod(t - x_k for k != j), each product divided
    synthetically out of prod(t - x_k).  A coefficient is a ``Fraction``
    only when it is not an integer, so integral data never loads
    ``fractions``.  Trailing zero coefficients are normalized away, so data
    sampled from a low-degree polynomial comes back at its true degree.
    """
    pts = [(_as_exact(x), _as_exact(y)) for x, y in points]
    if not pts:
        return Poly()
    sx = lcm(*(x.denominator for x, _ in pts))
    sy = lcm(*(y.denominator for _, y in pts))
    xs = [int(x * sx) for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("sample points must have distinct x values")
    k = len(xs)
    whole = [1]  # prod(t - x_j), ascending coefficients
    for x in xs:
        whole = [a - x * b for a, b in zip([0] + whole, whole + [0])]
    weights = [prod(xj - xk for xk in xs if xk != xj) for xj in xs]
    den = lcm(*weights)
    num = [0] * k
    for (_, y), xj, w in zip(pts, xs, weights):
        scale = int(y * sy) * (den // w)
        acc = 0
        for i in range(k, 0, -1):  # whole / (t - xj), from the top
            acc = whole[i] + xj * acc
            num[i - 1] += scale * acc
    out = []
    for i, c in enumerate(num):
        c, d = c * sx**i, den * sy
        if c % d:
            from fractions import Fraction

            out.append(Fraction(c, d))
        else:
            out.append(c // d)
    return Poly(out)
