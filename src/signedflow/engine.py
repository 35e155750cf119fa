"""Closed-form solution counts and the deletion-contraction flow polynomial.

For a fixed 2-rank d, the number of nowhere-zero flows over any abelian
group of order 2^d * n is a polynomial f_d in n.  d enters only through
q = 2^d, so one pass computes the bivariate polynomial F(q, n) with exact
integer coefficients and every f_d is F(2^d, n).

Unrolling deletion-contraction over every edge gives the subset expansion
of Beck and Zaslavsky (2006):

    F(q, n) = sum over edge sets A of (-1)^|E - A| q^k(A) n^(k(A) - u(A)),

where k(A) is the cycle rank of (V, A) and u(A) its number of unbalanced
components.  The engine sums it in one iterative pass over the whole
graph along ``graph.frontier_walk``, keeping only what the remaining
edges can still see: the open vertices, split into blocks by the
contracted edges (the edges in A), each vertex with its sign parity
relative to its block and each block with an unbalanced flag.  The sum is
multiplicative over components, and no edge joins the blocks of two
components, so a disconnected graph needs no split.  No minor is built,
nothing recurses and nothing is memoised, so the cost follows the
frontier width, not the edge order.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb

from .graph import SignedGraph, _edge_name, _forest, frontier_walk
# unused here; perfbench/tracing.py wraps these names on this module, and
# each name it wraps must resolve
from .graph import connected_components, contract_edge, delete_edge, graph_fingerprint, make_edge_positive  # noqa: F401
from .polynomial import Poly, _as_exact, interpolate
from .values import BudgetExceededError, Value, _as_int

# F(q, n) as {(i, j): c} for the terms c * n^i * q^j, zero terms omitted.
_Bivariate = dict[tuple[int, int], int]


def _at_q(f: _Bivariate, d: int) -> Poly:
    """F(2^d, n)."""
    coeffs = [0] * (max((i for i, _ in f), default=-1) + 1)
    for (i, j), c in f.items():
        coeffs[i] += c << d * j
    return Poly(coeffs)


def _qn_minus_1_power(k: int) -> _Bivariate:
    """(q*n - 1)^k by the binomial theorem."""
    return {(i, i): comb(k, i) * (-1) ** (k - i) for i in range(k + 1)}


def _negative_loops(t: int) -> _Bivariate:
    """Solutions of 2*x_1 + ... + 2*x_t = 0 with all x_i nonzero, over any
    abelian group of order q*n whose 2-torsion has order q.

    Doubling maps the group onto a subgroup of order n with kernel of size
    q, so a solution with exactly s nonzero images lifts in q^s (q-1)^(t-s)
    ways, and the images solve y_1 + ... + y_s = 0 in N_s(n) ways.  With
    N_0 = 1, N_1 = 0 and N_s(m) = (m-1)^(s-1) - N_(s-1)(m), induction gives
    N_s(m) = ((m-1)^s + (-1)^s (m-1)) / m, and the binomial theorem sums
    C(t, s) q^s (q-1)^(t-s) N_s(n) over s to
    ((q*n - 1)^t + (-1)^t (n - 1)) / n.
    """
    out = {(i - 1, j): c for (i, j), c in _qn_minus_1_power(t).items() if i}
    out[0, 0] = (-1) ** t
    return out


def nonzero_sum_count(s: int, order: int | None = None) -> Poly | int:
    """Number of solutions of x_1 + ... + x_s = 0 with all x_i nonzero, in
    an abelian group of order m.

    Returned as a polynomial in m when ``order`` is None, otherwise
    evaluated at the given order.  It is the negative-loop count at q = 1,
    where doubling is a bijection: ((m-1)^s + (-1)^s (m-1)) / m, which is 1
    for the empty equation (s = 0).
    """
    s = _as_int(s, "s", least=0)
    p = _at_q(_negative_loops(s), 0)
    return p if order is None else p(_as_int(order, "order", least=1))


def double_sum_solutions(t: int, d: int) -> Poly:
    """Number of solutions of 2*x_1 + ... + 2*x_t = 0 with all x_i nonzero,
    as a polynomial in n, over any abelian group of 2-rank d and order 2^d*n.

    This is the negative-loop count evaluated at q = 2^d.
    """
    t, d = _as_int(t, "t", least=0), _as_int(d, "d", least=0)
    return _at_q(_negative_loops(t), d)


def flow_polynomial(g: SignedGraph, d: int, *, cache: object = None) -> Poly:
    """The polynomial f with f(n) = number of nowhere-zero flows over every
    abelian group of 2-rank d and order 2^d * n.

    Computes F(q, n), the subset expansion of the module docstring, in one
    pass over the whole graph, and returns F(2^d, n).  For several d,
    :func:`flow_polynomial_family` computes F once.

    ``cache`` is accepted and unused, only because the benchmark's
    exactness check (``perfbench/checks.py``) passes ``cache={}``.
    """
    d = _as_int(d, "d", least=0)
    return _at_q(_frontier_sum(g), d)


def _frontier_sum(g: SignedGraph) -> _Bivariate:
    """F(q, n) of ``g``, in one pass.

    The edges are taken along :func:`frontier_walk`, which leaves out the
    edgeless vertices: each is a factor 1, so the vertices counted are those
    the walk opens, and an empty walk sums to 1.  No edge joins the blocks
    of two components, so a disconnected graph is summed as it is, in any
    edge order: F is multiplicative over components.  A state is a
    ``bytes`` with one label per slot: its block number times 4, plus 2 if
    the block is unbalanced, plus its parity.  Switching at the vertices of
    parity 1 makes every contracted edge of a block positive.  A block is
    named after the slot of its member that leaves last (ties go to the
    lower slot), and that member has parity 0, so equal states meet in one
    entry and a block's name is freed only when the block closes.  No later
    edge can make an unbalanced block balanced, so its parities are all 0.
    A free slot p holds ``p << 2``, a balanced block of its own, which is
    what a vertex is when it opens.

    A state is relabelled by ``bytes.translate``, so a label must fit in a
    byte: there are at most 64 slots.  Only a close can cancel every sum,
    and once no state is left F is 0 and the walk stops.  A walk that needs
    more slots is refused with ``BudgetExceededError``, naming the edge
    that opens its 65th slot, at its first step that leaves a state: such a
    walk only answers F = 0 when its first edge already leaves none, as a
    pendant edge does.

    The sign (-1)^|E - A| of the subset expansion is split as
    (-1)^|E| (-1)^|A|: deleting an edge keeps a term as it is, contracting
    it negates the term.  A state maps to the sum of the terms
    q^k n^(k - u) of the edge sets that reach it, u counting the blocks
    that closed unbalanced.  That sum is packed into one int with the
    coefficient of (k, u) as a signed digit of ``width`` bits at position
    k + ``room`` * u, so adding two sums is one int addition, k + 1 is a
    shift by ``width`` and u + 1 a shift by ``width * room``.  Every
    coefficient sums at most 2^|E| terms of +-1, so a digit never
    overflows, and k <= |E| - |V| + c < ``room``, |V| counting the vertices
    the walk opens and c their components, the roots of
    ``graph._forest``, which keeps only vertices with an edge.

    A loop is an edge with both ends at one slot: in A it adds a cycle, and
    a negative one unbalances its block.  A positive loop changes no state,
    so the P positive loops give a factor (1 - X)^P with X = 2^width.
    """
    walk = frontier_walk(g)
    if not walk:
        return {(0, 0): 1}
    m = g.num_edges
    width = (m + 9) // 8 * 8  # whole bytes, and |digit| <= 2^m < 2^(width - 1)
    x = 1 << width
    # m - |V| + c + 1: a spanning forest has an edge at each vertex but its
    # tree's root
    room = m + 1 - len(_forest(g, range(m), [1] * m))
    level = width * room

    # every slot is free at the start, and again after the last edge
    slots = 1 + max(max(step[1:3]) for step in walk)
    # the first step opens at most slots 0 and 1, so a walk with too many
    # slots can take that step
    start = bytes(range(0, 4 * min(slots, _SLOTS), 4))
    # ranks the vertices in the slots by when they leave, ties to the lower slot
    leave = [0] * slots
    states = {start: 1}
    positive = 0
    for i, su, sv, opened, freed, _ in walk:
        if opened:
            # which of two blocks keeps its name may change, so each move
            # is made again; parallel edges between opens share them
            moves: tuple[dict, dict] = ({}, {})  # by sign
        for p, last in opened:
            leave[p] = last * slots - p
        negative = g.edges[i].sign < 0
        if su == sv and not negative:
            positive += 1
        else:
            states = _contract(states, su, sv, negative, width, leave, moves[negative])
        if freed:
            states = _close(states, freed, level)
            if not any(states.values()):
                return {}
        if slots > _SLOTS:
            edge = next(step[0] for step in walk if any(p == _SLOTS for p, _ in step[3]))
            raise BudgetExceededError(
                f"{_edge_name(g, edge)} opens slot {_SLOTS + 1} of {slots}, and the "
                f"engine's states hold at most {_SLOTS} open vertices")
    total = states.get(start, 0) * (1 - x) ** positive * (-1) ** m

    # read the signed digits back: bias each by half a digit so none borrows
    size = total.bit_length() // width + 2
    half = 1 << width - 1
    raw = (total + half * ((1 << width * size) - 1) // (x - 1)).to_bytes(width * size // 8, "little")
    step = width // 8
    digits = [int.from_bytes(raw[p:p + step], "little") - half for p in range(0, len(raw), step)]
    return {(k - u, k): c for u in range(size // room + 1)
            for k, c in enumerate(digits[u * room:(u + 1) * room]) if c}


# a label, block * 4 + flags, is one byte, so a state holds at most 64 slots
_SLOTS = 64
_IDENTITY = bytes(range(256))


def _move(la: int, lb: int, negative: bool, leave: list[int]) -> tuple[bool, bytes | None]:
    """What contracting an edge does to a state whose ends hold labels
    ``la`` and ``lb``: whether it adds a cycle, and the table that
    relabels the state (None if no label changes)."""
    ba, bb = la >> 2, lb >> 2
    odd = (la ^ lb ^ negative) & 1
    if ba == bb:
        # a cycle in one block; a negative one unbalances the block
        if not odd or la & 2:
            return True, None
        return True, _relabel(_IDENTITY, ba, bytes([ba << 2 | 2]) * 4)
    # the block whose name leaves later keeps it, and the other joins
    keep, join = (ba, bb) if leave[ba] > leave[bb] else (bb, ba)
    if (la | lb) & 2:
        unbalanced = bytes([keep << 2 | 2]) * 4
        return False, _relabel(_relabel(_IDENTITY, join, unbalanced), keep, unbalanced)
    # its parities flipped if the edge is negative after switching
    return False, _relabel(_IDENTITY, join, bytes([keep << 2 | odd, keep << 2 | 1 - odd]) * 2)


def _relabel(table: bytes, block: int, labels: bytes) -> bytes:
    """``table`` with the 4 labels of ``block`` translated to ``labels``."""
    return table[:block << 2] + labels + table[block + 1 << 2:]


def _contract(states: dict[bytes, int], sa: int, sb: int, negative: bool,
              width: int, leave: list[int], moves: dict) -> dict[bytes, int]:
    """Each state with the edge between slots ``sa`` and ``sb`` deleted (as
    it is) and contracted (negated); ``leave`` ranks the slots' vertices by
    when they leave.  A contraction is a translation table, made once per
    pair of labels at the edge's ends and kept in ``moves``.  See
    :func:`_frontier_sum`."""
    out = states.copy()  # the deletion leaves every state as it is
    for s, c in states.items():
        key = s[sa] << 8 | s[sb]
        move = moves.get(key)
        if move is None:
            move = moves[key] = _move(key >> 8, key & 255, negative, leave)
        cycle, table = move
        if cycle:
            c <<= width
        if table is not None:
            s = s.translate(table)
        out[s] = out.get(s, 0) - c
    return out


def _close(states: dict[bytes, int], freed: tuple[int, ...], level: int) -> dict[bytes, int]:
    """Each state with the slots ``freed`` free again.  A block's name
    leaves last, so freeing it closes the block, and u grows by 1 if the
    block is unbalanced."""
    out: dict[bytes, int] = {}
    for s, c in states.items():
        if not c:
            continue
        s = bytearray(s)
        for p in freed:
            if s[p] == p << 2 | 2:
                c <<= level
            s[p] = p << 2
        key = bytes(s)
        out[key] = out.get(key, 0) + c
    return out


# the most bits one family's coefficients may take: 8 MB of ints, and
# about 3.3 bytes per bit at the peak of a poly report (2000 positive loops
# took 467 MB at 1.4 * 10^8 bits); poly --d-max 100 on K9 counts 5.1 * 10^6
_FAMILY_BITS = 1 << 26


def flow_polynomial_family(g: SignedGraph, d_max: int) -> dict[int, Poly]:
    """``{d: f_d}`` for d = 0..d_max, from one F(q, n): f_d is F(2^d, n),
    see :func:`flow_polynomial`.

    The coefficients grow as d_max^2 bits, so they are bounded from F's
    terms before any f_d is formed.  The n^i coefficient of f_d sums the
    terms c * 2^(d*j) of n^i, so it has at most max(bit_length(c)) +
    d * max(j) + bit_length(number of terms) bits; summed over d, the d * j
    part gives max(j) * d_max * (d_max + 1) / 2.  Each coefficient of each
    f_d, up to the highest power of n in F (one for F = 0), also counts
    1024 bits for its object and its report text, about 1 KB per f_d on an
    edgeless graph, so that many small polynomials are bounded too.  Past
    ``_FAMILY_BITS``, ``BudgetExceededError`` is raised.
    """
    d_max = _as_int(d_max, "d_max", least=0)
    f = _frontier_sum(g)
    per_power: dict[int, tuple[int, int, int]] = {}  # i -> (most bits, largest j, terms)
    for (i, j), c in f.items():
        most, top, terms = per_power.get(i, (0, 0, 0))
        per_power[i] = max(most, c.bit_length()), max(top, j), terms + 1
    num_f = d_max + 1
    bits = num_f * 1024 * (max(per_power, default=0) + 1) + sum(
        num_f * (most + terms.bit_length()) + top * d_max * num_f // 2 for most, top, terms in per_power.values())
    if bits > _FAMILY_BITS:
        raise BudgetExceededError(
            f"d-max {d_max}: f_0..f_{d_max} may take up to {bits} bits of coefficients, "
            f"more than the {_FAMILY_BITS} a family may take")
    return {d: _at_q(f, d) for d in range(num_f)}


class QuasiPolynomialFit(Value):
    """Per-parity interpolation of integer-flow counts.

    ``validated`` means the held-out largest sample of each parity class is
    reproduced exactly; coefficients may be rational.
    """

    __slots__ = ("p_even", "p_odd", "validated", "sample_range")

    def __init__(self, p_even: Poly, p_odd: Poly, validated: bool,
                 sample_range: tuple[int, int]) -> None:
        object.__setattr__(self, "p_even", p_even)
        object.__setattr__(self, "p_odd", p_odd)
        object.__setattr__(self, "validated", validated)
        object.__setattr__(self, "sample_range", sample_range)


# the least n_max a fit takes: three samples per parity class
_FIT_MIN_N = 6


def fit_quasipolynomial(samples: Iterable[tuple[int, int]]) -> QuasiPolynomialFit:
    """Fit one exact polynomial per parity class to counts sampled at
    consecutive n = 1..n_max (n_max >= 6).

    Each class is interpolated through all but its largest sample; the fit
    is validated when the held-out counts are reproduced exactly.  All
    arithmetic is rational, never floating point.
    """
    pts = sorted((_as_int(n, "sample n"), _as_exact(c)) for n, c in samples)
    if not pts or [n for n, _ in pts] != list(range(1, len(pts) + 1)):
        raise ValueError("samples must cover consecutive n = 1..n_max exactly once")
    n_max = pts[-1][0]
    if n_max < _FIT_MIN_N:
        raise ValueError(f"need samples up to at least n = {_FIT_MIN_N}, got n_max = {n_max}")

    fitted: dict[int, Poly] = {}
    validated = True
    for parity in (0, 1):
        cls = [(n, c) for n, c in pts if n % 2 == parity]
        held_out = cls[-1]
        p = interpolate(cls[:-1])
        if p(held_out[0]) != held_out[1]:
            validated = False
        fitted[parity] = p
    return QuasiPolynomialFit(
        p_even=fitted[0],
        p_odd=fitted[1],
        validated=validated,
        sample_range=(1, n_max),
    )
