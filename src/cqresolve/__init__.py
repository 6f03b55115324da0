"""Numerical toolkit for classical-quantum channel resolvability.

Exact resolution errors over M-types, capacity and fixed-input
resolvability rates, soft-covering Monte Carlo against one-shot bounds,
spectral smoothing and pinching primitives, method-of-types machinery,
and identification-code checks. All logarithms and rates are base 2.
"""
from .errors import (ConvergenceError, DimensionMismatchError, ResourceLimitError,
                     ValidationError)
from .linalg import (SpectralDecomposition, eigh, positive_part_projector, tensor_power,
                     trace_norm, validate_density, validate_hermitian)
from .channel import (CQChannel, Distribution, MType, Word, channel_from_json,
                      compositions, distribution_from_json, empirical_output,
                      format_label, m_type_counts, output_state)
from .info import (PinchingMap, RenyiMutualInfo, RenyiOrder, mutual_info, phi, pinch,
                   pinching_from_spectrum, qrel_entropy, renyi_mutual_info,
                   sandwiched_renyi)
from .rates import (RateResult, capacity, feasible_vertices, fixed_input_rate)
from .resolvability import (ResolutionResult, SmoothingParams, SoftCoverReport,
                            ceil_operator, converse_trend, ll1b_bound,
                            ll2_bound, resolution_error_exact,
                            resolution_error_worst, soft_cover_simulate)
from .types_sanov import (Basis, EmpiricalState, TypeProjector, TypesBoundCheck,
                          all_empirical_states, bad_codeword_test,
                          commuting_types_bound_check, ee31_margin, type_pinching,
                          type_projector)
from .idcodes import (BridgeCheck, IDCode, IDVerifyReport,
                      PairwiseDistanceReport, bridge_counting_check,
                      idcode_from_json, pairwise_distance_check,
                      verify_id_code)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
