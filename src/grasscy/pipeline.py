"""End-to-end instanton pipeline for one registry case:
hypergeometric series -> factorial modification -> Picard-Fuchs fit ->
Frobenius pair -> mirror map -> Yukawa coupling -> instanton numbers.

No truncation is stored; each follows from the request:
- the A-series runs to the fit bound (max_order+1)(max_zdeg+1)+GUARD
  (`dop.fit_trunc`), with max_order 4 and the case's pf_max_zdeg, which
  `check_case` holds within MAX_ORDER;
- the Frobenius pair, the mirror map and K_q run to count, the degree to
  which `extract_instantons` reads K_q; the mirror stage hands on z(q)
  alone, the series in q that K_q is composed with, and K_q keeps the
  truncation of its inputs;
- K_z runs to max(12, count), the order the report prints it to and
  compares with the case's fixture (`RegistryCase.kz3_fixture`); 12 is
  the order of the K_z fixtures, and K_q reads K_z to count.
"""

from __future__ import annotations

from .dop import DOp, dop_to_json, fit_trunc, pf_fit
from .errors import shown
from .hypergeom import MAX_ORDER, a_series, check_order, factorial_trick
from .mirror_analysis import (
    extract_instantons,
    frobenius,
    mirror_map,
    yukawa_q,
    yukawa_z,
)
from .record import record
from .registry import RegistryCase, RegistryError
from .series import PowerSeries, series_to_json

PF_MAX_ORDER = 4
KZ_ORDER = 12
INSTANTON_COUNT = 5  # the published tables list n_1..n_5


@record
class RunReport:
    case: RegistryCase
    operator: DOp
    kz3: PowerSeries
    kz3_fixture_match: bool
    instantons: list[int]

    @property
    def name(self) -> str:
        return self.case.name

    @property
    def passed(self) -> bool:
        case, inst = self.case, self.instantons
        return ((case.instantons is None
                 or list(case.instantons[: len(inst)]) == inst[: len(case.instantons)])
                and self.kz3_fixture_match and case.hodge_Y == case.expected_Y)

    def to_json(self) -> dict:
        case = self.case
        return {
            "case": case.name,
            "pass": self.passed,
            "operator": dop_to_json(self.operator, "z"),
            "kz3": series_to_json(self.kz3),
            "kz3_fixture_match": self.kz3_fixture_match,
            "instantons": self.instantons,
            "expected_instantons": list(case.instantons) if case.instantons else None,
            "hodge_Y": list(case.hodge_Y),
            "expected_Y": list(case.expected_Y),
            "node_count": case.node_count,
            "expected_p": case.expected_p,
        }


def check_case(case: RegistryCase):
    """Refuse a case whose fit needs the A-series past MAX_ORDER; the
    commands run it on each case they use before any stage starts."""
    order = fit_trunc(PF_MAX_ORDER, case.pf_max_zdeg)
    if order > MAX_ORDER:
        raise RegistryError(f"{case.name}: pf_max_zdeg {shown(case.pf_max_zdeg)} needs the "
                            f"A-series to order {shown(order)}, past the resource cap {MAX_ORDER}")


def fit_operator(case: RegistryCase) -> DOp:
    """The Picard-Fuchs operator of a case: A-series -> phi -> pf_fit."""
    a = a_series(case.k, case.n, fit_trunc(PF_MAX_ORDER, case.pf_max_zdeg))
    phi = factorial_trick(a, case.degrees)
    return pf_fit(phi, max_order=PF_MAX_ORDER, max_zdeg=case.pf_max_zdeg)


def run_case(case: RegistryCase, count: int = INSTANTON_COUNT) -> RunReport:
    check_order(count, "count", lo=1)
    order = max(KZ_ORDER, count)
    op = fit_operator(case)
    fp = frobenius(op, count)
    z_of_q = mirror_map(fp)
    kz3 = yukawa_z(op, case.n0, order)
    kq3 = yukawa_q(kz3, fp, z_of_q)
    inst = extract_instantons(kq3, count)
    return RunReport(case, op, kz3, kz3 == case.kz3_fixture(order), inst)
