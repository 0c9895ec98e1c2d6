"""grasscy: exact-arithmetic mirror symmetry pipeline for Calabi-Yau
complete intersections in Grassmannians.

Everything is computed over exact rationals: toric degeneration data,
hypergeometric series, Picard-Fuchs operators, quantum-cohomology
operators, mirror maps, Yukawa couplings, and instanton numbers.

The public names below are imported from their modules on first use
(PEP 562), so `import grasscy` loads none of them.
"""

from importlib import import_module

_EXPORTS = {
    "dop": ("DOp", "dop_to_json", "pf_fit"),
    "hypergeom": ("a_series", "a_series_qspecialized", "a_series_terms", "factorial_trick"),
    "laurent": ("LaurentPoly", "laurent_from_json", "laurent_pow_ct", "laurent_to_json"),
    "laxmirror": ("canonical_gauge_coeffs", "lax_operator", "mirror_period", "mirror_system",
                  "period_ct"),
    "mirror_analysis": ("FrobeniusPair", "extract_instantons", "frobenius", "mirror_map",
                        "normal_form_check", "yukawa_q", "yukawa_z"),
    "pipeline": ("RunReport", "run_case"),
    "qh": ("build_qh_matrix", "scalar_operator", "verify_conjecture"),
    "registry": ("RegistryCase", "registry_load"),
    "series": ("PowerSeries", "Q", "TruncationError", "series_from_json", "series_to_json"),
    "toric": ("build_delta", "degree_grassmannian", "facets_and_reflexivity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
