"""grasscy: exact-arithmetic mirror symmetry pipeline for Calabi-Yau
complete intersections in Grassmannians.

Everything is computed over exact rationals: toric degeneration data,
hypergeometric series, Picard-Fuchs operators, quantum-cohomology
operators, mirror maps, Yukawa couplings, and instanton numbers.
"""

from .dop import DOp, dop_from_json, dop_to_json, pf_fit
from .hypergeom import ASeriesSpec, FactorialBundle, a_series, a_series_qspecialized, factorial_trick
from .laurent import LaurentPoly, laurent_from_json, laurent_pow_ct, laurent_to_json
from .laxmirror import canonical_gauge_coeffs, lax_operator, mirror_system, period_ct
from .mirror_analysis import (
    FrobeniusPair,
    MirrorMap,
    extract_instantons,
    frobenius,
    frobenius_basis,
    mirror_map,
    normal_form_check,
    yukawa_q,
    yukawa_z,
)
from .pipeline import RunReport, rational_series, run_case
from .qh import build_qh_matrix, scalar_operator, verify_conjecture
from .registry import RegistryCase, registry_load
from .series import LogSeries, PowerSeries, Q, TruncationError, series_from_json, series_to_json
from .toric import CYCase, build_delta, degree_grassmannian, facets_and_reflexivity

__version__ = "0.1.0"
