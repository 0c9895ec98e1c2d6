"""Loading and validation of the Calabi-Yau case registry."""

from __future__ import annotations

import json
import os

from .errors import UsageError
from .record import record
from .series import Q
from .toric import CYCase, node_count


@record
class RegistryCase:
    case: CYCase
    expected_Y: tuple[int, int, int]
    expected_p: int
    kz3_numerator: tuple
    kz3_denominator: tuple
    pf_max_zdeg: int


class RegistryError(UsageError):
    pass


def _load_json(path: str | os.PathLike | None) -> dict:
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "cases.json")
    with open(path) as fh:
        return json.load(fh)


def registry_load(path: str | os.PathLike | None = None) -> dict[str, RegistryCase]:
    cases = _load_json(path)["cases"]
    if not isinstance(cases, list) or not cases:
        raise RegistryError(f"cases must be a non-empty list, got {cases!r:.40}")
    out: dict[str, RegistryCase] = {}
    for rec in cases:
        if rec["name"] in out:
            raise RegistryError(f"{rec['name']}: two cases share this name")
        zdeg, inst = rec["pf_max_zdeg"], rec["instantons"]
        if type(zdeg) is not int or zdeg < 0:
            raise RegistryError(f"{rec['name']}: pf_max_zdeg must be an int >= 0, got {zdeg!r}")
        if inst is not None and not (isinstance(inst, list) and all(type(x) is int for x in inst)):
            raise RegistryError(f"{rec['name']}: instantons must be null or a list of ints, "
                                f"got {inst!r}")
        try:
            case = CYCase(
                name=rec["name"],
                k=rec["k"],
                n=rec["n"],
                degrees=tuple(rec["degrees"]),
                strata_degrees=tuple(rec["strata_degrees"]),
                h11=rec["h11"],
                h21=rec["h21"],
                instantons=tuple(inst) if inst else None,
                notes=rec.get("notes", ""),
            )
        except UsageError as e:  # a degree, sum or section count CYCase refuses
            raise RegistryError(str(e)) from e
        if rec["chi"] != case.chi:
            raise RegistryError(f"{case.name}: chi != 2(h11 - h21)")
        if rec["alpha"] != case.alpha:
            raise RegistryError(f"{case.name}: alpha != (k-1)(n-k-1)")
        if rec["p"] != node_count(case):
            raise RegistryError(f"{case.name}: node count disagrees with strata degrees")
        ey = tuple(rec["expected_Y"])
        if ey[2] != 2 * (ey[0] - ey[1]):
            raise RegistryError(f"{case.name}: chi(Y) != 2(h11(Y) - h21(Y))")
        kz3_denominator = tuple(Q(c) for c in rec["kz3_denominator"])
        if not kz3_denominator or kz3_denominator[0] == 0:
            raise RegistryError(f"{case.name}: the K_z fixture's denominator vanishes at z = 0")
        out[case.name] = RegistryCase(
            case=case,
            expected_Y=ey,
            expected_p=rec["p"],
            kz3_numerator=tuple(Q(c) for c in rec["kz3_numerator"]),
            kz3_denominator=kz3_denominator,
            pf_max_zdeg=zdeg,
        )
    return out
