"""Loading and validation of the Calabi-Yau case registry."""

from __future__ import annotations

import json
import os
from math import prod

from .errors import UsageError
from .record import record, set_field
from .series import PowerSeries, Q, int_list, rationals, require_keys
from .toric import check_degrees, check_kn, degree_grassmannian


class RegistryError(UsageError):
    pass


@record
class RegistryCase:
    """One row of the paper's table, X of the given degrees in G(k,n) and
    Y after its conifold transition, with its K_z fixture and fit bound;
    refused on construction unless its numbers fit together."""

    name: str
    k: int
    n: int
    degrees: tuple[int, ...]
    strata_degrees: tuple[int, ...]
    h11: int
    h21: int
    expected_Y: tuple[int, int, int]
    expected_p: int
    kz3_numerator: tuple
    kz3_denominator: tuple
    pf_max_zdeg: int
    instantons: tuple[int, ...] | None = None  # n_1..n_5 when published
    notes: str = ""

    def __post_init__(self):
        try:
            self._hold_typed()
        except UsageError as e:
            raise RegistryError(f"{self.name}: {e}") from None
        fault = self._fault()
        if fault is not None:
            raise RegistryError(f"{self.name}: {fault}")

    def _hold_typed(self) -> None:
        """Refuse the first field of the wrong JSON type, naming it, and
        hold each list as a tuple.  These rules come first, as every rule
        after them does arithmetic on the fields."""
        if type(self.name) is not str:
            raise UsageError(f"name must be a str, got {self.name!r:.40}")
        for field, value in (("k", self.k), ("n", self.n), ("h11", self.h11),
                             ("h21", self.h21), ("p", self.expected_p)):
            if type(value) is not int:
                raise UsageError(f"{field} must be an int, got {value!r:.40}")
        zdeg, inst = self.pf_max_zdeg, self.instantons
        if type(zdeg) is not int or zdeg < 0:
            raise UsageError(f"pf_max_zdeg must be an int >= 0, got {zdeg!r}")
        if inst is not None and not (isinstance(inst, (list, tuple))
                                     and all(type(x) is int for x in inst)):
            raise UsageError(f"instantons must be null or a list of ints, got {inst!r}")
        for field in ("degrees", "strata_degrees", "expected_Y"):
            set_field(self, field, int_list(getattr(self, field), field))
        if len(self.expected_Y) != 3:
            raise UsageError(f"expected_Y must hold h11, h21 and chi, "
                             f"got {list(self.expected_Y)!r:.40}")
        for field in ("kz3_numerator", "kz3_denominator"):
            set_field(self, field, rationals(getattr(self, field), field))
        set_field(self, "instantons", tuple(inst) if inst else None)

    def _fault(self) -> str | None:
        """The first rule the case breaks, or None.  The shape rule comes
        first, as the rules after it read k(n-k) and alpha."""
        try:
            check_kn(self.k, self.n)
            check_degrees(self.degrees)
        except UsageError as e:
            return str(e)
        if sum(self.degrees) != self.n:
            return "degrees must sum to n"
        if list(self.degrees) != sorted(self.degrees):
            return "degrees must be weakly increasing"
        if len(self.degrees) != self.k * (self.n - self.k) - 3:
            return "a threefold in G(k,n) is cut by k(n-k) - 3 sections"
        if len(self.strata_degrees) != self.alpha:
            return f"expected {self.alpha} strata degrees"
        if self.node_count != self.expected_p:
            return "node count disagrees with strata degrees"
        ey = self.expected_Y
        if ey[2] != 2 * (ey[0] - ey[1]):
            return "chi(Y) != 2(h11(Y) - h21(Y))"
        if not self.kz3_denominator or self.kz3_denominator[0] == 0:
            return "the K_z fixture's denominator vanishes at z = 0"
        return None

    def kz3_fixture(self, order: int) -> PowerSeries:
        """The K_z fixture, kz3_numerator / kz3_denominator, expanded in z
        to the given order."""
        pad = lambda c: PowerSeries("z", (c + (Q(0),) * (order + 1))[: order + 1])
        return pad(self.kz3_numerator) / pad(self.kz3_denominator)

    @property
    def alpha(self) -> int:
        return (self.k - 1) * (self.n - self.k - 1)

    @property
    def chi(self) -> int:
        return 2 * (self.h11 - self.h21)

    @property
    def n0(self) -> int:
        return prod(self.degrees) * degree_grassmannian(self.k, self.n)

    @property
    def node_count(self) -> int:
        return prod(self.degrees) * sum(self.strata_degrees)

    @property
    def hodge_Y(self) -> tuple[int, int, int]:
        """(h11, h21, chi) of the small resolution after the conifold transition."""
        h11 = self.h11 + self.alpha
        h21 = self.h21 + self.alpha - self.node_count
        return h11, h21, 2 * (h11 - h21)


def _load_json(path: str | os.PathLike | None) -> dict:
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "cases.json")
    with open(path) as fh:
        return json.load(fh)


# an entry's keys in RegistryCase's field order, "notes" aside; "p" holds expected_p
ENTRY_KEYS = ("name", "k", "n", "degrees", "strata_degrees", "h11", "h21", "expected_Y", "p",
              "kz3_numerator", "kz3_denominator", "pf_max_zdeg", "instantons")


def registry_load(path: str | os.PathLike | None = None) -> dict[str, RegistryCase]:
    doc = _load_json(path)
    require_keys(doc, ("cases",), "case registry")
    cases = doc["cases"]
    if not isinstance(cases, list) or not cases:
        raise RegistryError(f"cases must be a non-empty list, got {cases!r:.40}")
    out: dict[str, RegistryCase] = {}
    for rec in cases:
        require_keys(rec, ENTRY_KEYS, "registry case")
        case = RegistryCase(*(rec[key] for key in ENTRY_KEYS), rec.get("notes", ""))
        if case.name in out:
            raise RegistryError(f"{case.name}: two cases share this name")
        out[case.name] = case
    return out
