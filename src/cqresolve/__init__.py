"""Numerical toolkit for classical-quantum channel resolvability.

Exact resolution errors over M-types, capacity and fixed-input
resolvability rates, soft-covering Monte Carlo against one-shot bounds,
spectral smoothing and pinching primitives, method-of-types machinery,
and identification-code checks. All logarithms and rates are base 2.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a program pays only
for the modules it reaches.
"""
import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "errors": ("ConvergenceError", "DimensionMismatchError", "ResourceLimitError",
               "ValidationError"),
    "linalg": ("SpectralDecomposition", "eigh", "positive_part_projector", "tensor_power",
               "trace_norm", "validate_density", "validate_hermitian"),
    "channel": ("CQChannel", "Distribution", "MType", "Word", "channel_from_json",
                "distribution_from_json", "format_label", "m_type_counts", "output_state"),
    "info": ("PinchingMap", "RenyiMutualInfo", "RenyiOrder", "mutual_info", "phi", "pinch",
             "pinching_from_spectrum", "qrel_entropy", "renyi_mutual_info",
             "sandwiched_renyi"),
    "rates": ("RateResult", "capacity", "fixed_input_rate"),
    "resolvability": ("ResolutionResult", "SmoothingParams", "SoftCoverReport",
                      "ceil_operator", "converse_trend", "ll1b_bound", "ll2_bound",
                      "resolution_error_exact", "resolution_error_worst",
                      "soft_cover_simulate"),
    "types_sanov": ("Basis", "EmpiricalState", "TypeProjector", "TypesBoundCheck",
                    "bad_codeword_count", "commuting_types_bound_check", "ee31_margin",
                    "type_pinching", "type_projector"),
    "idcodes": ("BridgeCheck", "IDCode", "IDVerifyReport", "PairwiseDistanceReport",
                "bridge_counting_check", "idcode_from_json", "pairwise_distance_check",
                "verify_id_code"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    """Import an exported name's module on first access and keep the name here."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
