"""Convex completion of a matrix coupled to a 3-way tensor on a shared mode,
with the overlapped / latent / scaled-latent / mixed trace-norm family."""

from .baselines import complete_tensor, coupled_cp_als
from .bounds import BoundParams, bound, rank_geometry
from .datagen import MaskSpec, SyntheticSpec, add_noise, gen_coupled_matrix, gen_instance, gen_masks, gen_tensor
from .norms import (
    NormDescriptor,
    dual_norm_latent_type,
    dual_norm_overlapped_upper,
    evaluate,
    evaluate_overlapped,
    format_descriptor,
    layout,
    parse_descriptor,
)
from .prox import SvdFactors, spectral_norm, svd, svt, trace_norm
from .solver import CoupledProblem, PathFit, SolverOptions, objective, path, solve
from .tensor_ops import ObservationMask, fold, mask_apply, tucker_synthesize, unfold

__all__ = [
    "ObservationMask", "unfold", "fold", "tucker_synthesize",
    "mask_apply", "SvdFactors", "svd", "trace_norm", "spectral_norm", "svt",
    "NormDescriptor", "layout", "parse_descriptor",
    "format_descriptor", "evaluate", "evaluate_overlapped",
    "dual_norm_latent_type", "dual_norm_overlapped_upper",
    "CoupledProblem", "SolverOptions", "solve", "objective",
    "PathFit", "path",
    "SyntheticSpec", "MaskSpec", "gen_tensor", "gen_coupled_matrix",
    "gen_instance", "add_noise", "gen_masks",
    "complete_tensor", "coupled_cp_als",
    "BoundParams", "bound", "rank_geometry",
]
