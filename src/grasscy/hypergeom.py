"""The A-hypergeometric series of the degenerate Grassmannian, its
specialization at all auxiliary parameters = 1, and the factorial
modification that turns it into a complete-intersection period series.

The coefficient of q^m is a sum over a (k-1) x (n-k-1) grid of integers
0 <= s_{i,j} <= m with s_{i,j} read as m outside the grid; each grid cell
contributes binomial(s_{i+1,j}, s_{i,j}) * binomial(s_{i,j+1}, s_{i,j}),
and the whole sum is divided by (m!)^n.

The specialized series sums the grid by a transfer over its cells: only
the values a later cell still reads are kept, so the state is one value
for k = 2 (a chain) and at most k - 1 values in general.  Listing every
grid assignment is kept for the multivariate series, which needs each
assignment's exponent vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .series import MultiSeries, PowerSeries, Q

MAX_ORDER = 200  # resource bound on every truncation order


@dataclass(frozen=True)
class ASeriesSpec:
    k: int
    n: int
    trunc: int
    keep_params: bool = False
    param_degree_bound: int | None = None

    def __post_init__(self):
        if not (1 <= self.k < self.n):
            raise ValueError("need 1 <= k < n")
        if self.trunc < 0:
            raise ValueError("truncation must be >= 0")
        if self.trunc > MAX_ORDER:
            raise ValueError(f"truncation {self.trunc} exceeds resource bound {MAX_ORDER}")
        if self.param_degree_bound is not None and self.param_degree_bound < 0:
            raise ValueError(f"parameter degree bound {self.param_degree_bound} must be >= 0")


def _grid_positions(k: int, n: int) -> list[tuple[int, int]]:
    """Cells (i,j), 1<=i<=k-1, 1<=j<=n-k-1, ordered so that the neighbours
    (i+1,j) and (i,j+1) are assigned before (i,j)."""
    pos = [(i, j) for i in range(1, k) for j in range(1, n - k)]
    pos.sort(key=lambda ij: -(ij[0] + ij[1]))
    return pos


def _grid_sum(k: int, n: int, m: int, collect):
    """Iterate over all grid assignments with nonzero binomial weight.

    Cells are filled in decreasing i+j order; a cell is bounded by the
    already-assigned values at (i+1,j) and (i,j+1) (m outside the grid),
    which prunes everything the binomials would kill anyway.
    """
    pos = _grid_positions(k, n)
    values: dict[tuple[int, int], int] = {}

    def lookup(i: int, j: int) -> int:
        if i > k - 1 or j > n - k - 1:
            return m
        return values[(i, j)]

    def rec(idx: int, weight: int):
        if idx == len(pos):
            collect(weight, values)
            return
        i, j = pos[idx]
        up = lookup(i + 1, j)
        right = lookup(i, j + 1)
        for s in range(min(up, right) + 1):
            w = comb(up, s) * comb(right, s)
            if w:
                values[(i, j)] = s
                rec(idx + 1, weight * w)
        values.pop((i, j), None)

    rec(0, 1)


def _frontiers(k: int, n: int):
    """One step per cell of `_grid_positions`, in that order: the state
    slots of the cell's `up` and `right` neighbours (None outside the
    grid, where the value is m), the state slots a later cell still reads,
    and whether a later cell reads the new value.  The kept slots followed
    by the new value, when kept, form the next state."""
    pos = _grid_positions(k, n)
    last_read = {}
    for idx, (i, j) in enumerate(pos):
        for cell in ((i + 1, j), (i, j + 1)):
            if cell[0] <= k - 1 and cell[1] <= n - k - 1:
                last_read[cell] = idx
    steps = []
    live: list[tuple[int, int]] = []
    for idx, (i, j) in enumerate(pos):
        slot = {cell: t for t, cell in enumerate(live)}
        keep = tuple(t for t, cell in enumerate(live) if last_read[cell] > idx)
        kept_new = last_read.get((i, j), -1) > idx
        steps.append((slot.get((i + 1, j)), slot.get((i, j + 1)), keep, kept_new))
        live = [live[t] for t in keep] + ([(i, j)] if kept_new else [])
    return steps


def _transfer_sum(steps, m: int, binom: list[list[int]]) -> int:
    """Grid sum of the weights for one m, by transfer over the frontier
    states (tuples of cell values -> summed weight); binom[a][s] = C(a, s).
    A cell no later cell reads is summed out in closed form."""
    states = {(): 1}
    for up_slot, right_slot, keep, kept_new in steps:
        nxt: dict[tuple, int] = {}
        for state, w in states.items():
            up = m if up_slot is None else state[up_slot]
            right = m if right_slot is None else state[right_slot]
            bu, br = binom[up], binom[right]
            base = tuple(state[t] for t in keep)
            if kept_new:
                for s in range(min(up, right) + 1):
                    key = base + (s,)
                    nxt[key] = nxt.get(key, 0) + w * bu[s] * br[s]
            else:
                # Vandermonde: sum_s C(up, s) C(right, s) = C(up + right, up)
                nxt[base] = nxt.get(base, 0) + w * comb(up + right, up)
        states = nxt
    return states[()]


def a_series(spec: ASeriesSpec):
    """A-series of the toric degeneration; PowerSeries in q when
    keep_params is off, MultiSeries over the auxiliary variables otherwise."""
    k, n, N = spec.k, spec.n, spec.trunc
    grid = [(i, j) for i in range(1, k) for j in range(1, n - k)]
    if not spec.keep_params:
        steps = _frontiers(k, n)
        binom = [[1]]  # Pascal rows 0..m
        coeffs = [Q(1)]  # m = 0: the all-zero grid, weight 1
        for m in range(1, N + 1):
            prev = binom[-1]
            binom.append([1] + [a + b for a, b in zip(prev, prev[1:])] + [1])
            coeffs.append(Q(_transfer_sum(steps, m, binom), factorial(m) ** n))
        return PowerSeries("q", tuple(coeffs))

    bound = spec.param_degree_bound
    terms: dict = {}
    for m in range(N + 1):
        fm = factorial(m) ** n

        def add(w, values, _m=m, _fm=fm):
            s = tuple(values[(i, j)] for i, j in grid)
            if bound is not None and sum(s) > bound:
                return
            key = (_m, s)
            terms[key] = terms.get(key, Q(0)) + Q(w, _fm)

        _grid_sum(k, n, m, add)
    return MultiSeries(len(grid), N, terms)


def a_series_qspecialized(k: int, n: int, trunc: int) -> PowerSeries:
    return a_series(ASeriesSpec(k, n, trunc))


@dataclass(frozen=True)
class FactorialBundle:
    degrees: tuple[int, ...]

    def __post_init__(self):
        if any(d <= 0 for d in self.degrees):
            raise ValueError("degrees must be positive")


def factorial_trick(a: PowerSeries, bundle: FactorialBundle) -> PowerSeries:
    """Multiply the m-th coefficient by prod_i (l_i * m)!."""
    out = []
    for m, c in enumerate(a.coeffs):
        w = 1
        for l in bundle.degrees:
            w *= factorial(l * m)
        out.append(c * w)
    return PowerSeries(a.var, tuple(out))
