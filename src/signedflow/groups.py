"""Finite abelian groups as explicit direct products of cyclic groups.

Elements are tuples of residues, one per modulus.  Everything here is pure
and immutable.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from math import prod

from .values import Value, _as_int, _int_list

GroupElement = tuple[int, ...]


class FiniteAbelianGroup(Value):
    """Direct product Z_m1 x ... x Z_mk described by its moduli.

    Moduli equal to 1 are tolerated (they contribute nothing), and no
    normalization to invariant factors is performed, so ``(6,)`` and
    ``(2, 3)`` are distinct descriptions of isomorphic groups.  Instances
    are immutable and compare and hash by ``moduli``.

    >>> FiniteAbelianGroup((4, 2)).order
    8
    >>> FiniteAbelianGroup((4, 2)).two_rank
    2
    >>> FiniteAbelianGroup((3,)).two_rank
    0
    """

    __slots__ = ("moduli",)

    def __init__(self, moduli: Iterable[int]) -> None:
        object.__setattr__(self, "moduli", tuple(_as_int(m, "modulus", least=1) for m in moduli))

    @property
    def order(self) -> int:
        return prod(self.moduli)

    @property
    def two_rank(self) -> int:
        """Largest d with a subgroup isomorphic to Z_2^d: the number of even moduli.

        The 2-rank of a direct sum is additive and Z_m contains an
        involution exactly when m is even.
        """
        return sum(1 for m in self.moduli if m % 2 == 0)

    def _check(self, a: GroupElement) -> GroupElement:
        """``a`` with each residue an int in 0..m-1 for its modulus m."""
        if len(a) != len(self.moduli):
            raise ValueError(f"element {a} has {len(a)} components, expected {len(self.moduli)}")
        return tuple(_as_int(r, "residue", below=m) for r, m in zip(a, self.moduli))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        a, b = self._check(a), self._check(b)
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def negate(self, a: GroupElement) -> GroupElement:
        a = self._check(a)
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def double(self, a: GroupElement) -> GroupElement:
        """a + a.

        >>> FiniteAbelianGroup((4,)).double((2,))
        (0,)
        """
        return self.add(a, a)

    def elements(self) -> Iterator[GroupElement]:
        """All elements in lexicographic order of residue tuples."""
        return itertools.product(*(range(m) for m in self.moduli))

    def index_table(self, shift: int, scale: int) -> list[int]:
        """Entry j is the index of ``a_shift + scale * a_j``, where ``a_i`` is
        the element at position i of ``elements()``; zero has index 0.

        ``index_table(i, 1)`` is row i of the addition table and
        ``index_table(0, -1)`` the negation table.  Built with residue
        arithmetic, one modulus at a time.

        >>> FiniteAbelianGroup((3,)).index_table(1, 2)
        [1, 0, 2]
        >>> FiniteAbelianGroup((2, 2)).index_table(1, 1)
        [1, 0, 3, 2]
        """
        shift, scale = _as_int(shift, "shift", below=self.order), _as_int(scale, "scale")
        residues = []
        for m in reversed(self.moduli):
            shift, r = divmod(shift, m)
            residues.append(r)
        table = [0]
        for m, r in zip(self.moduli, reversed(residues)):
            image = [(r + scale * x) % m for x in range(m)]
            # a table of one entry is [0], and then the image is the whole table
            table = image if len(table) == 1 else [t * m + y for t in table for y in image]
        return table

    def label(self) -> str:
        """Human name such as ``Z4 x Z2``; the trivial group is ``Z1``."""
        if not self.moduli:
            return "Z1"
        return " x ".join(f"Z{m}" for m in self.moduli)

    def spec(self) -> str:
        """Comma-separated moduli, the CLI's group syntax."""
        return ",".join(str(m) for m in self.moduli)


def parse_group_spec(spec: str) -> FiniteAbelianGroup:
    """Parse ``"4,2"`` into Z4 x Z2; the empty string is the trivial group."""
    return FiniteAbelianGroup(_int_list(spec, "modulus"))


def _partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of k with parts in non-increasing order."""
    def rec(rest: int, cap: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    yield from rec(k, k)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def abelian_groups_of_order(n: int) -> list[FiniteAbelianGroup]:
    """All abelian groups of order n up to isomorphism, in a fixed order.

    One group per choice of partition of each prime exponent; the moduli are
    the prime-power cyclic factors, sorted descending.

    >>> [g.moduli for g in abelian_groups_of_order(4)]
    [(4,), (2, 2)]
    """
    n = _as_int(n, "order", least=1)
    per_prime = [
        [tuple(p**part for part in partition) for partition in _partitions(a)]
        for p, a in sorted(_factorize(n).items())
    ]
    groups = []
    for choice in itertools.product(*per_prime):
        moduli = tuple(sorted((m for factors in choice for m in factors), reverse=True))
        groups.append(FiniteAbelianGroup(moduli))
    return sorted(groups, key=lambda g: g.moduli, reverse=True)


def abelian_groups_up_to(max_order: int) -> list[FiniteAbelianGroup]:
    """All abelian groups of order 1..max_order up to isomorphism."""
    max_order = _as_int(max_order, "max_order")
    return [g for n in range(1, max_order + 1) for g in abelian_groups_of_order(n)]


def group_pairs_same_invariants(
    groups: Iterable[FiniteAbelianGroup],
) -> list[tuple[FiniteAbelianGroup, FiniteAbelianGroup]]:
    """Pairs of ``groups`` sharing both order and 2-rank, in order of
    (order, 2-rank) and then of ``groups``; non-isomorphic pairs when
    ``groups`` lists each group once, as :func:`abelian_groups_up_to` does.

    >>> [(a.moduli, b.moduli) for a, b in group_pairs_same_invariants(abelian_groups_up_to(9))]
    [((9,), (3, 3))]
    """
    buckets: dict[tuple[int, int], list[FiniteAbelianGroup]] = {}
    for g in groups:
        buckets.setdefault((g.order, g.two_rank), []).append(g)
    return [pair for key in sorted(buckets) for pair in itertools.combinations(buckets[key], 2)]
