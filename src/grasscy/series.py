"""Exact truncated power series over Q.

Every series carries an explicit truncation order: coefficients are known
for degrees 0..trunc and nothing beyond.  Arithmetic returns the minimum
truncation of its operands; asking for a coefficient past the truncation
raises instead of silently returning zero.

The kernels (`*`, reciprocal and `/`, `series_compose`, `series_revert`)
clear their inputs to integers over one common denominator and build one
Fraction per output coefficient; `series_exp` keeps its coefficients
reduced and sums each degree over the lcm of the denominators before it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import GrasscyError, UsageError
from .record import record

Q = Fraction

ZERO = Q(0)
ONE = Q(1)


class VariableMismatch(GrasscyError):
    """Binary operation on series in different variables."""


class TruncationError(GrasscyError):
    """Coefficient requested beyond the known truncation order."""


class SeriesDomainError(GrasscyError):
    """A series operation applied outside its domain, such as the
    reciprocal of a series with constant term 0."""


def _coerce(values) -> tuple[Q, ...]:
    return tuple(v if type(v) is Q else Q(v) for v in values)


def over_common_den(coeffs) -> tuple[list[int], int]:
    """(ints, den) with coeffs[i] = ints[i] / den, den the lcm of the
    denominators: the inner loops of the series kernels run on ints."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _weights(A: list[int], D: int) -> list[int]:
    """[0, A_1, A_2 D, ..., A_j D^(j-1), ...]: degree j of A / D scaled by
    D^j, so that every term of a degree-m recurrence carries D^m."""
    out = [0]
    power = 1
    for a in A[1:]:
        out.append(a * power)
        power *= D
    return out


def qstr(x: Q) -> str:
    """Encode a rational as "p/q", or "p" when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@record
class PowerSeries:
    var: str
    coeffs: tuple[Q, ...]  # length trunc + 1

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coerce(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, var: str, trunc: int) -> "PowerSeries":
        return cls(var, (ZERO,) * (trunc + 1))

    @classmethod
    def one(cls, var: str, trunc: int) -> "PowerSeries":
        return cls(var, (ONE,) + (ZERO,) * trunc)

    def __getitem__(self, m: int) -> Q:
        if m < 0:
            raise IndexError("negative degree")
        if m > self.trunc:
            raise TruncationError(f"coefficient of degree {m} beyond truncation {self.trunc}")
        return self.coeffs[m]

    def truncate(self, n: int) -> "PowerSeries":
        if n > self.trunc:
            raise TruncationError(f"cannot extend truncation {self.trunc} to {n}")
        return PowerSeries(self.var, self.coeffs[: n + 1])

    def _check(self, other: "PowerSeries"):
        if self.var != other.var:
            raise VariableMismatch(f"{self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            self._check(other)
            n = min(self.trunc, other.trunc)
            return PowerSeries(self.var, tuple(self.coeffs[m] + other.coeffs[m] for m in range(n + 1)))
        c = Q(other)
        return PowerSeries(self.var, (self.coeffs[0] + c,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -Q(other))

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            self._check(other)
            n = min(self.trunc, other.trunc)
            A, da = over_common_den(self.coeffs[: n + 1])
            B, db = over_common_den(other.coeffs[: n + 1])
            out = [0] * (n + 1)
            for i, a in enumerate(A):
                if a:
                    for j in range(n + 1 - i):
                        out[i + j] += a * B[j]
            scale = da * db
            return PowerSeries(self.var, tuple(Q(c, scale) for c in out))
        c = Q(other)
        return PowerSeries(self.var, tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def shift(self, i: int) -> "PowerSeries":
        """Multiply by var**i, keeping the same truncation."""
        if i < 0:
            raise ValueError("negative shift")
        n = self.trunc
        out = (ZERO,) * min(i, n + 1) + self.coeffs[: max(0, n + 1 - i)]
        return PowerSeries(self.var, out)

    def theta(self) -> "PowerSeries":
        """The Euler operator var * d/dvar, truncation preserved."""
        return PowerSeries(self.var, tuple(Q(m) * c for m, c in enumerate(self.coeffs)))

    def reciprocal(self) -> "PowerSeries":
        if self.coeffs[0] == 0:
            raise SeriesDomainError("reciprocal needs a nonzero constant term")
        # self = A / D, so 1/self = D * sum_m B_m x^m / A_0^(m+1) with
        # B_0 = 1, B_m = -sum_{j>=1} A_j A_0^(j-1) B_(m-j)
        A, D = over_common_den(self.coeffs)
        a0 = A[0]
        weights = _weights(A, a0)
        B = [1]
        out = [Q(D, a0)]
        power = a0
        for m in range(1, len(A)):
            B.append(-sum(weights[j] * B[m - j] for j in range(1, m + 1) if weights[j]))
            power *= a0
            out.append(Q(D * B[m], power))
        return PowerSeries(self.var, tuple(out))

    def __truediv__(self, other):
        if isinstance(other, PowerSeries):
            return self * other.reciprocal()
        return self * (ONE / Q(other))


def series_exp(a: PowerSeries) -> PowerSeries:
    """Formal exponential; requires a(0) = 0."""
    if a.coeffs[0] != 0:
        raise SeriesDomainError("exp needs constant term 0")
    # m E_m = sum_{j=1..m} j a_j E_(m-j) with a = A / D: over den, the lcm
    # of the denominators of E_0..E_(m-1), the sum runs in integers
    A, D = over_common_den(a.coeffs)
    E = [ONE]
    den = 1
    for m in range(1, len(A)):
        den = lcm(den, E[-1].denominator)
        E.append(Q(sum(j * A[j] * E[m - j].numerator * (den // E[m - j].denominator)
                       for j in range(1, m + 1) if A[j]), m * D * den))
    return PowerSeries(a.var, tuple(E))


def series_compose(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """f(g) for g with zero constant term; result in g's variable."""
    if g.coeffs[0] != 0:
        raise SeriesDomainError("composition needs inner constant term 0")
    n = min(f.trunc, g.trunc)
    # f = F / E and g = G / D with F, G integral; Horner in integers,
    # acc <- acc G + F_m D^(n-m), ends at E D^n f(g)
    F, E = over_common_den(f.coeffs[: n + 1])
    G, D = over_common_den(g.coeffs[: n + 1])
    acc = [F[n]] + [0] * n
    dpow = 1
    for m in range(n - 1, -1, -1):
        dpow *= D
        acc = [sum(acc[i] * G[d - i] for i in range(d)) for d in range(n + 1)]  # G[0] = 0
        acc[0] += F[m] * dpow
    scale = E * dpow
    return PowerSeries(g.var, tuple(Q(c, scale) for c in acc))


def series_revert(a: PowerSeries) -> PowerSeries:
    """Compositional inverse g with a(g(t)) = t to truncation.

    Requires a(0) = 0 and a'(0) != 0.  Lagrange inversion: with
    h = t / a(t), g_m = [t^(m-1)] h^m / m, one product with h per degree.
    """
    if a.coeffs[0] != 0:
        raise SeriesDomainError("revert needs constant term 0")
    if a.trunc < 1 or a.coeffs[1] == 0:
        raise SeriesDomainError("revert needs a nonzero linear coefficient")
    n = a.trunc
    h = PowerSeries(a.var, a.coeffs[1:]).reciprocal().coeffs  # degrees 0..n-1
    # h = H / den with H integral, so h^m = power / den^m in integers
    H, den = over_common_den(h)
    g = [ZERO] * (n + 1)
    power, scale = H, den
    for m in range(1, n + 1):
        if m > 1:
            power = [sum(power[i] * H[d - i] for i in range(d + 1)) for d in range(n)]
            scale *= den
        g[m] = Q(power[m - 1], m * scale)
    return PowerSeries(a.var, tuple(g))


def series_to_json(f: PowerSeries) -> dict:
    return {"var": f.var, "trunc": f.trunc, "coeffs": [qstr(c) for c in f.coeffs]}


def require_keys(d, keys, what: str) -> None:
    """Reject a JSON document that is not an object with every key."""
    missing = [k for k in keys if not isinstance(d, dict) or k not in d]
    if missing:
        raise UsageError(f"not a {what}: missing {', '.join(map(repr, missing))}")


def int_list(values, what: str) -> tuple[int, ...]:
    """A JSON list of ints as a tuple; a bool is not an int."""
    if not isinstance(values, (list, tuple)) or any(type(x) is not int for x in values):
        raise UsageError(f"{what} must be a list of ints, got {values!r:.40}")
    return tuple(values)


def rational(value, what: str) -> Q:
    """A JSON rational, an int or a string such as "-3/4"."""
    try:
        return Q(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be a rational, got {value!r:.40}") from None


def rationals(values, what: str) -> tuple[Q, ...]:
    """A JSON list of rationals as a tuple."""
    if not isinstance(values, (list, tuple)):
        raise UsageError(f"{what} must be a list of rationals, got {values!r:.40}")
    return tuple(rational(c, f"every entry of {what}") for c in values)


def series_from_json(d: dict) -> PowerSeries:
    require_keys(d, ("var", "trunc", "coeffs"), "power series")
    coeffs = rationals(d["coeffs"], "coeffs")
    if not coeffs:
        raise UsageError("coeffs must hold at least the constant coefficient")
    f = PowerSeries(d["var"], coeffs)
    if f.trunc != d["trunc"]:
        raise UsageError("trunc field disagrees with coefficient count")
    return f
