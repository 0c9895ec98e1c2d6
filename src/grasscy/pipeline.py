"""End-to-end instanton pipeline for one registry case:
hypergeometric series -> factorial modification -> Picard-Fuchs fit ->
Frobenius pair -> mirror map -> Yukawa coupling -> instanton numbers.

No truncation is stored; each follows from the request:
- the A-series runs to the fit bound (max_order+1)(max_zdeg+1)+GUARD
  (`dop.fit_trunc`), with max_order 4 and the case's pf_max_zdeg;
- the Frobenius pair, the mirror map and K_q run to count, the degree to
  which `extract_instantons` reads K_q; K_q keeps the truncation of its
  inputs;
- K_z runs to max(12, count + 1), the order the report prints it to; 12
  is the order of the K_z fixtures.
"""

from __future__ import annotations

import time

from .dop import DOp, dop_to_json, fit_trunc, pf_fit
from .hypergeom import a_series, factorial_trick
from .mirror_analysis import (
    extract_instantons,
    frobenius,
    mirror_map,
    yukawa_q,
    yukawa_z,
)
from .record import record
from .registry import RegistryCase
from .series import PowerSeries, Q, series_to_json
from .toric import hodge_after_transition, node_count

ZERO = Q(0)
PF_MAX_ORDER = 4
KZ_ORDER = 12


def rational_series(numerator, denominator, var: str, order: int) -> PowerSeries:
    """Exact expansion of a rational function given by coefficient lists."""
    pad = lambda c: tuple(c) + (ZERO,) * (order + 1 - len(c))
    num = PowerSeries(var, pad(tuple(Q(x) for x in numerator))[: order + 1])
    den = PowerSeries(var, pad(tuple(Q(x) for x in denominator))[: order + 1])
    return num / den


@record
class RunReport:
    name: str
    operator: DOp
    kz3: PowerSeries
    kz3_fixture_match: bool
    instantons: list[int]
    expected_instantons: tuple[int, ...] | None
    hodge_Y: tuple[int, int, int]
    expected_Y: tuple[int, int, int]
    node_count: int
    expected_p: int
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        inst_ok = (
            self.expected_instantons is None
            or list(self.expected_instantons[: len(self.instantons)])
            == self.instantons[: len(self.expected_instantons)]
        )
        return (
            inst_ok
            and self.kz3_fixture_match
            and self.hodge_Y == self.expected_Y
            and self.node_count == self.expected_p
        )

    def to_json(self) -> dict:
        return {
            "case": self.name,
            "pass": self.passed,
            "operator": dop_to_json(self.operator, "z"),
            "kz3": series_to_json(self.kz3),
            "kz3_fixture_match": self.kz3_fixture_match,
            "instantons": self.instantons,
            "expected_instantons": (
                list(self.expected_instantons) if self.expected_instantons else None
            ),
            "hodge_Y": list(self.hodge_Y),
            "expected_Y": list(self.expected_Y),
            "node_count": self.node_count,
            "expected_p": self.expected_p,
            "seconds": round(self.seconds, 3),
        }


def fit_operator(rc: RegistryCase) -> DOp:
    """The Picard-Fuchs operator of a case: A-series -> phi -> pf_fit."""
    case = rc.case
    a = a_series(case.k, case.n, fit_trunc(PF_MAX_ORDER, rc.pf_max_zdeg))
    phi = factorial_trick(a, case.degrees)
    return pf_fit(phi, max_order=PF_MAX_ORDER, max_zdeg=rc.pf_max_zdeg)


def run_case(rc: RegistryCase, count: int = 5) -> RunReport:
    t0 = time.monotonic()
    case = rc.case
    order = max(KZ_ORDER, count + 1)
    op = fit_operator(rc)
    fp = frobenius(op, count)
    maps = mirror_map(fp)
    kz3 = yukawa_z(op, case.n0, order)
    fixture = rational_series(rc.kz3_numerator, rc.kz3_denominator, "z", order)
    kq3 = yukawa_q(kz3, fp, maps)
    inst = extract_instantons(kq3, count)
    report = RunReport(
        name=case.name,
        operator=op,
        kz3=kz3,
        kz3_fixture_match=(kz3 == fixture),
        instantons=inst,
        expected_instantons=case.instantons,
        hodge_Y=hodge_after_transition(case),
        expected_Y=rc.expected_Y,
        node_count=node_count(case),
        expected_p=rc.expected_p,
        seconds=time.monotonic() - t0,
    )
    return report
