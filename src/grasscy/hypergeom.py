"""The A-hypergeometric series of the degenerate Grassmannian and the
factorial modification that turns it into a complete-intersection period
series.

The coefficient of q^m is a sum over a (k-1) x (n-k-1) grid of integers
0 <= s_{i,j} <= m with s_{i,j} read as m outside the grid; each grid cell
contributes binomial(s_{i+1,j}, s_{i,j}) * binomial(s_{i,j+1}, s_{i,j}),
and the whole sum is divided by (m!)^n.  Each assignment s is also the
exponent vector of a monomial in the auxiliary parameters, one per cell:
`a_series_terms` keeps those terms apart, keyed (m, s), and so lists every
assignment; `a_series` is their sum at every parameter = 1, the
specialized series in q.  Each checks its plain arguments (`toric.check_kn`,
`check_order`), and the listing and the transfer are each capped by
MAX_TERMS before they start.  `factorial_trick`
checks the degrees of X (`toric.check_degrees`).

The specialized series sums the grid by a transfer over its cells: only
the values a later cell still reads are kept, so the state is one value
for k = 2 (a chain) and at most k - 1 values in general.  The grid of
G(n-k,n) is the transpose of that of G(k,n), with the same sum, so the
transfer runs on the one with k <= n - k.  The newest value
is held densely, as a list of weights; the others key a dict.  A value
read for the last time is summed out of a whole list at once by Kronecker
substitution: sum_v w_v C(v, s) is digit s of the big integer
sum_v w_v (1 + X)^v for X = 2^W large enough that no digit carries.  The
cell no later cell reads is summed in closed form by Vandermonde; on the
grids of at most 2 x 2 cells, the corner (1,1) is summed out together
with its neighbours (1,2) and (2,1), in closed form over their values.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from math import comb, factorial, prod
from operator import add, mul

from .errors import UsageError, shown
from .series import PowerSeries, Q
from .toric import check_degrees, check_kn

MAX_ORDER = 200  # resource cap on every truncation order
# resource cap on (N + 1)^(cells + 1), which bounds the number of grid
# assignments `a_series_terms` lists to order N, and on the weights that
# `a_series` carries through its transfer; it covers G(4,8) to order 3
MAX_TERMS = 4 ** 10


def check_order(value: int, what: str = "order", lo: int = 0):
    """Reject an order (or count) below `lo` or past MAX_ORDER."""
    if value < lo:
        raise UsageError(f"{what} must be >= {lo}, got {shown(value)}")
    if value > MAX_ORDER:
        raise UsageError(f"{what} {shown(value)} exceeds resource cap {MAX_ORDER}")


def check_param_bound(bound: int | None):
    """Reject a parameter degree bound below 0 (None is no bound)."""
    if bound is not None and bound < 0:
        raise UsageError(f"parameter degree bound {shown(bound)} must be >= 0")


def _check_terms(count: int, base: int, power: int, what: str):
    """Reject count * base^power > MAX_TERMS (count, power >= 0, base >= 1)
    before anything is built; for count, base >= 2 the power is formed only
    when its floor 2^power is within the cap."""
    if count and (base > 1 and power >= MAX_TERMS.bit_length() or count * base ** power > MAX_TERMS):
        raise UsageError(f"{what} exceed the resource cap {MAX_TERMS}")


def _grid_positions(k: int, n: int) -> list[tuple[int, int]]:
    """Cells (i,j), 1<=i<=k-1, 1<=j<=n-k-1, ordered so that the neighbours
    (i+1,j) and (i,j+1) are assigned before (i,j)."""
    pos = [(i, j) for i in range(1, k) for j in range(1, n - k)]
    pos.sort(key=lambda ij: -(ij[0] + ij[1]))
    return pos


def _grid_sum(k: int, n: int, m: int) -> list:
    """Every grid assignment with nonzero binomial weight, as (weight, s)
    with s the cell values in row-major order.

    Cells are filled in decreasing i+j order, one layer per cell that
    extends every partial assignment: a cell is bounded by the
    already-assigned values at (i+1,j) and (i,j+1) (m outside the grid),
    which prunes everything the binomials would kill anyway.  Every partial
    assignment extends to a full one, so no layer outgrows the listing.
    """
    pos = _grid_positions(k, n)
    slot = {cell: t for t, cell in enumerate(pos)}
    layer = [(1, ())]
    for i, j in pos:
        up, right = slot.get((i + 1, j)), slot.get((i, j + 1))
        extended = []
        for weight, values in layer:
            a = m if up is None else values[up]
            b = m if right is None else values[right]
            extended += [(weight * comb(a, s) * comb(b, s), values + (s,)) for s in range(min(a, b) + 1)]
        layer = extended
    order = [slot[cell] for cell in sorted(pos)]
    return [(weight, tuple(values[t] for t in order)) for weight, values in layer]


def _frontiers(k: int, n: int):
    """One step per cell of `_grid_positions`, in that order: the state
    slots of the cell's `up` and `right` neighbours (None outside the
    grid, where the value is m), the state slots a later cell still reads,
    and whether a later cell reads the new value.  The kept slots followed
    by the new value, when kept, form the next state.

    When (1,3) and (3,1) lie outside the grid (k <= 3 and n - k <= 3), the
    corner (1,1) is the only reader of its neighbours (1,2) and (2,1), and
    they are summed out with it: they get no step of their own, and the
    corner's step names such a neighbour by the pair of slots of its own
    up and right neighbours instead of by one slot."""
    inside = lambda i, j: i <= k - 1 and j <= n - k - 1
    parents = lambda i, j: ((i + 1, j), (i, j + 1))
    folded = [c for c in ((1, 2), (2, 1)) if inside(*c)] if k <= 3 and n - k <= 3 else []
    pos = [c for c in _grid_positions(k, n) if c not in folded]
    last_read = {}
    for idx, cell in enumerate(pos):
        for nb in parents(*cell):
            for read in parents(*nb) if nb in folded else (nb,):
                if inside(*read):
                    last_read[read] = idx
    steps = []
    live: list[tuple[int, int]] = []
    for idx, (i, j) in enumerate(pos):
        slot = {cell: t for t, cell in enumerate(live)}.get
        name = lambda nb: tuple(map(slot, parents(*nb))) if nb in folded else slot(nb)
        keep = tuple(t for t, cell in enumerate(live) if last_read[cell] > idx)
        kept_new = last_read.get((i, j), -1) > idx
        steps.append((name((i + 1, j)), name((i, j + 1)), keep, kept_new))
        live = [live[t] for t in keep] + ([(i, j)] if kept_new else [])
    return steps


def _pascal(top: int) -> tuple[list[list[int]], list[list[int]]]:
    """binom[a][s] = C(a, s) and vand[a][b] = C(a + b, a) for a, b <= top;
    the rows of vand are partial sums of the row before (hockey stick)."""
    binom, vand = [[1]], [[1] * (top + 1)]
    for _ in range(top):
        binom.append([1, *map(add, binom[-1], binom[-1][1:]), 1])
        vand.append(list(accumulate(vand[-1])))
    return binom, vand


def _transfer_sum(steps, m: int, binom: list[list[int]], vand: list[list[int]]) -> int:
    """Grid sum of the weights for one m, by transfer over the frontier
    states of `_frontiers`; binom and vand are `_pascal` tables to >= m.

    A state maps the frontier values except the newest to a dense list of
    summed weights over the newest value; the empty frontier is {(): [w]}.
    A step that sums nothing turns each (state, value) into one row
    w * C(up, s) * C(right, s) over the new value s.  A neighbour read for
    the last time is summed out by one packed contraction per group of
    states: the binomial transform T_s = sum_v w_v C(v, s) is the base-X
    digit s of sum_v w_v Y_v, with Y_v = (1 + X)^v the packed Pascal rows.
    A dropped neighbour held in a key slot is first brought to the dense
    position by transposing the block of states that differ only there.
    The last cell, which no later cell reads, is summed out by Vandermonde,
    sum_s C(u, s) C(r, s) = C(u + r, u): one dot product per state.  A
    corner whose neighbours are summed out with it (a slot pair in its step)
    is sum_s g_up(s) g_right(s) per (state, value), where g is C(v, s) for
    a neighbour of value v and `_folded` for a summed-out one."""
    states: dict[tuple, list[int]] = {(): [1]}
    live = 0  # frontier length; the newest value is in slot live - 1
    for up_slot, right_slot, keep, kept_new in steps:
        if tuple in (type(up_slot), type(right_slot)):
            # the corner, the last step: it keeps nothing
            last = 0
            for key, row in states.items():
                for v, w in enumerate(row):
                    x = key + (v,) if live else key
                    g_up, g_right = (_folded(nb, x, m, binom, vand) for nb in (up_slot, right_slot))
                    last += w * sum(map(mul, g_up, g_right))
            return last
        dense = live - 1 if live else None
        dropped = [t for t in (up_slot, right_slot) if t is not None and t not in keep]
        nxt: dict[tuple, list[int]] = {}
        if not dropped:
            # every (state, value) is its own next state
            for key, row in states.items():
                for v, w in enumerate(row):
                    x = key + (v,) if live else key
                    up = m if up_slot is None else x[up_slot]
                    right = m if right_slot is None else x[right_slot]
                    if kept_new:
                        nxt[x] = list(map(mul, map(w.__mul__, binom[up]), binom[right]))
                    else:
                        nxt[x] = [w * vand[up][right]]
            states, live = nxt, len(keep) + kept_new
            continue
        # sum out c; the other neighbour's value o multiplies digit s by C(o, s)
        c = dense if dense in dropped else dropped[0]
        other = right_slot if c == up_slot else up_slot
        if not kept_new:
            # the last cell: every frontier value is a neighbour, so c is dense
            last = sum(sum(map(mul, row, vand[m if other is None else key[other]]))
                       for key, row in states.items())
            states, live = {(): [last]}, 0
            continue
        # Every weight is >= 0 and C(v, s) <= 2^m, so a digit is at most
        # 2^m * total < 2^(m + bits(total)): that many bits keep them apart.
        total = sum(map(sum, states.values()))
        width = (m + total.bit_length() + 7) // 8
        packed = [1]
        for _ in range(m):
            packed.append((packed[-1] << 8 * width) + packed[-1])
        if c == dense:
            for key, row in states.items():
                o = m if other is None else key[other]
                _add_row(nxt, tuple(key[t] for t in keep),
                         _digits_times(sum(map(mul, row, packed)), width, binom[o]))
        else:
            blocks: dict[tuple, tuple] = {}
            for key, row in states.items():
                block = blocks.setdefault(key[:c] + key[c + 1:], (key, [], []))
                block[1].append(packed[key[c]])
                block[2].append(row)
            for key, ys, rows in blocks.values():
                base = tuple(key[t] for t in keep[:-1])  # the dense slot is kept, and last
                for v, col in enumerate(zip_longest(*rows, fillvalue=0)):
                    o = m if other is None else v if other == dense else key[other]
                    _add_row(nxt, base + (v,),
                             _digits_times(sum(map(mul, col, ys)), width, binom[o]))
        states, live = nxt, len(keep) + 1
    return states[()][0]


def _folded(nb, x: tuple, m: int, binom: list[list[int]], vand: list[list[int]]) -> list[int]:
    """The corner's weights over its value s from the neighbour `nb` of
    state x: C(v, s) for a neighbour of value v (its slot, or None for m),
    and for a neighbour summed out with the corner (the slot pair of its
    parents, of values u and r) F(u, r, s) = sum_y C(u, y) C(r, y) C(y, s)
    = C(u, s) C(u + r - s, u), which is 0 for s > min(u, r)."""
    if type(nb) is not tuple:
        return binom[m if nb is None else x[nb]]
    u, r = (m if t is None else x[t] for t in nb)
    return list(map(mul, binom[u], vand[u][r::-1]))


def _digits_times(t: int, width: int, brow: list[int]) -> list[int]:
    """The first len(brow) base-2^(8 width) digits of t times brow."""
    buf = t.to_bytes((t.bit_length() + 7) // 8, "little")
    end = min(len(buf), len(brow) * width)
    return list(map(mul, [int.from_bytes(buf[i:i + width], "little")
                          for i in range(0, end, width)], brow))


def _add_row(rows: dict, key: tuple, row: list[int]) -> None:
    """rows[key] += row, elementwise; the shorter is padded with zeros."""
    old = rows.get(key)
    if old is None:
        rows[key] = row
    elif len(old) >= len(row):
        old[:len(row)] = map(add, old, row)
    else:
        row[:len(old)] = map(add, row, old)
        rows[key] = row


def a_series(k: int, n: int, trunc: int) -> PowerSeries:
    """The A-series of the toric degeneration of G(k,n) to order `trunc`
    at every auxiliary parameter = 1, a PowerSeries in q.  The transfer
    is capped at MAX_TERMS weights before it is built."""
    check_kn(k, n)
    check_order(trunc)
    w = min(k, n - k)
    # per cell, the transfer holds at most (trunc + 1)^(w - 1) weights on a
    # frontier of w - 1 slots: base 2 at order 0 still counts the slots
    _check_terms((k - 1) * (n - k - 1), max(trunc + 1, 2), w - 1,
                 f"(k - 1)(n - k - 1) x max(order + 1, 2)^(min(k, n - k) - 1) transfer weights "
                 f"of G({shown(k)},{shown(n)}) to order {trunc}")
    steps = _frontiers(w, n)
    binom, vand = _pascal(trunc)
    coeffs = [Q(_transfer_sum(steps, m, binom, vand), factorial(m) ** n)
              for m in range(trunc + 1)]
    return PowerSeries("q", tuple(coeffs))


def a_series_terms(k: int, n: int, trunc: int, bound: int | None = None) -> dict[tuple, Q]:
    """The A-series over the auxiliary parameters, one per grid cell: the
    coefficient of q^m times the monomial of exponents s, keyed (m, s) with
    s in row-major cell order, for every term of parameter degree sum(s)
    at most `bound` (all of them for None).  With no bound, its sum over s
    at each m is `a_series`.  Every assignment of the cells is listed, so
    (trunc + 1)^(cells + 1) is capped at MAX_TERMS."""
    check_kn(k, n)
    check_order(trunc)
    check_param_bound(bound)
    _check_terms(1, trunc + 1, (k - 1) * (n - k - 1) + 1,
                 f"(order + 1)^((k - 1)(n - k - 1) + 1) A-series terms of G({shown(k)},{shown(n)}) "
                 f"to order {trunc}")
    return {(m, s): Q(w, factorial(m) ** n)
            for m in range(trunc + 1)
            for w, s in _grid_sum(k, n, m)
            if bound is None or sum(s) <= bound}


def a_series_qspecialized(k: int, n: int, trunc: int) -> PowerSeries:
    return a_series(k, n, trunc)


def factorial_trick(a: PowerSeries, degrees: tuple[int, ...]) -> PowerSeries:
    """Multiply the m-th coefficient by prod_i (l_i * m)! over the degrees
    l_i: the period of X, a series in the complex-structure coordinate z."""
    check_degrees(degrees, f"degrees {degrees}")
    return PowerSeries("z", tuple(c * prod(factorial(l * m) for l in degrees)
                                  for m, c in enumerate(a.coeffs)))
