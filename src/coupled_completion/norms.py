"""Coupled trace-norm family for a matrix attached to a 3-way tensor.

A norm is specified by a :class:`NormDescriptor`: the coupled mode plus one
tag per tensor mode.  Tag semantics:

* ``O`` -- the mode is trace-norm regularized on a latent tensor shared by
  all other ``O`` modes (overlapped style).
* ``L`` -- the mode gets its own latent tensor, regularized only on that
  mode.
* ``S`` -- like ``L`` but the trace-norm term is scaled by ``1/sqrt(n_k)``.

All-``O`` norms have a closed form; every descriptor containing latent
components is defined as an infimum over additive decompositions and is
evaluated by the solver's ADMM iteration (:func:`solver.decompose`), which
brackets it between a feasible decomposition's value and a Hoelder lower
bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .prox import spectral_norm, trace_norm
# svt is not called here; bench/test_bench.py patches and checks norms.svt
from .prox import svt  # noqa: F401
from .tensor_ops import POSITIVE, check_mode, check_pair, check_settings, unfold

__all__ = [
    "TAGS",
    "NormDescriptor",
    "ComponentLayout",
    "InvalidDescriptorError",
    "layout",
    "parse_descriptor",
    "format_descriptor",
    "evaluate_overlapped",
    "evaluate",
    "bracket",
    "dual_norm_latent_type",
    "dual_norm_overlapped_upper",
]

TAGS = ("O", "L", "S")


class InvalidDescriptorError(ValueError):
    """Raised when a norm descriptor violates the tag grammar."""


@dataclass(frozen=True)
class NormDescriptor:
    """Coupled mode + per-mode tags; construction enforces the tag grammar.

    An overlapped group needs at least two modes, so exactly one ``O`` tag
    is invalid; the accepted patterns are all-``O``, all-``L``, all-``S``
    and a single ``L``/``S`` mode with the other two ``O``.
    """

    coupled_mode: int
    tags: tuple[str, str, str]

    def __post_init__(self):
        check_mode(self.coupled_mode, "coupled_mode", InvalidDescriptorError)
        if len(self.tags) != 3 or any(t not in TAGS for t in self.tags):
            raise InvalidDescriptorError(
                f"tags must be a triple over {TAGS}, got {self.tags!r}"
            )
        tags = self.tags
        n_o = tags.count("O")
        if n_o == 1:
            raise InvalidDescriptorError("an overlapped group needs at least two modes tagged 'O'")
        if n_o != 2 and tags not in (("O", "O", "O"), ("L", "L", "L"), ("S", "S", "S")):
            raise InvalidDescriptorError(
                f"unsupported tag pattern {tags}: mixing requires exactly one "
                "latent-style mode with the other two overlapped"
            )

    def has_latent(self) -> bool:
        return any(t in ("L", "S") for t in self.tags)


@dataclass(frozen=True)
class ComponentLayout:
    """Latent-component structure implied by a descriptor.

    ``components`` maps component index -> list of ``(mode, scale)`` pairs it
    is trace-norm regularized on.  Each regularized mode has one owner; the
    owner of ``coupled_mode`` carries the matrix in that mode's unfolding.
    """

    dims: tuple[int, int, int]
    coupled_mode: int
    components: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    def regularized_modes(self) -> list[tuple[int, float, int]]:
        """Flat list of ``(mode, scale, component)`` over all norm terms."""
        return sorted(
            (mode, scale, c) for c, terms in enumerate(self.components) for mode, scale in terms
        )


def layout(d: NormDescriptor, dims: tuple[int, int, int]) -> ComponentLayout:
    """Derive the latent-component layout of a descriptor."""
    components: list[list[tuple[int, float]]] = []
    overlapped = [k for k in (1, 2, 3) if d.tags[k - 1] == "O"]
    if overlapped:
        components.append([(k, 1.0) for k in overlapped])
    for k in (1, 2, 3):
        tag = d.tags[k - 1]
        if tag == "L":
            components.append([(k, 1.0)])
        elif tag == "S":
            components.append([(k, 1.0 / np.sqrt(dims[k - 1]))])
    return ComponentLayout(
        dims=dims,
        coupled_mode=d.coupled_mode,
        components=tuple(tuple(terms) for terms in components),
    )


_DESC_RE = re.compile(
    r"^\s*(?P<a>[123])\s*:\s*\(\s*(?P<b>[OLS])\s*,"
    r"\s*(?P<c>[OLS])\s*,\s*(?P<d>[OLS])\s*\)\s*$"
)


def parse_descriptor(text: str) -> NormDescriptor:
    """Parse the text form, e.g. ``"1:(O,S,O)"``."""
    m = _DESC_RE.match(text) if isinstance(text, str) else None
    if not m:
        raise InvalidDescriptorError(
            f"cannot parse norm descriptor {text!r}; expected e.g. '1:(O,S,O)'"
        )
    return NormDescriptor(
        coupled_mode=int(m.group("a")),
        tags=(m.group("b"), m.group("c"), m.group("d")),
    )


def format_descriptor(d: NormDescriptor) -> str:
    return f"{d.coupled_mode}:({d.tags[0]},{d.tags[1]},{d.tags[2]})"


def _operands(T: np.ndarray, M: np.ndarray, coupled_mode: int) -> tuple[np.ndarray, np.ndarray]:
    """``T`` and ``M`` as C-ordered float arrays, checked for norm evaluation.

    Raises ``ValueError`` naming ``coupled_mode``, ``T`` or ``M`` unless they
    are a coupled pair (:func:`tensor_ops.check_pair`) and every entry of
    both is finite.
    """
    T = np.ascontiguousarray(T, dtype=float)
    M = np.ascontiguousarray(M, dtype=float)
    check_pair(T, M, coupled_mode, "coupled_mode")
    for name, X in (("T", T), ("M", M)):
        if not np.isfinite(X).all():
            raise ValueError(f"{name} must be finite, got a non-finite entry")
    return T, M


def evaluate_overlapped(
    T: np.ndarray,
    M: np.ndarray,
    d: NormDescriptor,
) -> float:
    """Closed-form value of an all-overlapped coupled norm: both ends of its :func:`bracket`."""
    if d.has_latent():
        raise InvalidDescriptorError(
            f"closed-form evaluation needs (O,O,O), got {d.tags}"
        )
    return bracket(T, M, d)[0]


def decomposition_value(
    components: list[np.ndarray],
    lay: ComponentLayout,
    M: np.ndarray,
) -> float:
    """Norm-term sum of a concrete additive decomposition (an upper bound)."""
    return sum(
        scale * trace_norm(unfold(components[c], mode, M if mode == lay.coupled_mode else None))
        for mode, scale, c in lay.regularized_modes()
    )


def evaluate(
    T: np.ndarray,
    M: np.ndarray,
    d: NormDescriptor,
    tol: float = 1e-6,
) -> float:
    """Value of the coupled norm at ``(T, M)``: the upper end of :func:`bracket`.

    It comes from a feasible decomposition, so it never undershoots the true
    infimum, and it exceeds it by at most ``tol`` times itself: the
    certified gap of :func:`bracket`, unless the ADMM reached its iteration
    cap first.
    """
    return bracket(T, M, d, tol)[1]


def bracket(
    T: np.ndarray,
    M: np.ndarray,
    d: NormDescriptor,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Certified ``(lower, upper)`` bounds on the coupled norm at ``(T, M)``.

    All-overlapped descriptors are closed-form: the decomposition is ``[T]``
    and both ends are its value.  Latent-containing ones are infima over
    additive decompositions, computed by the solver's ADMM on the
    decomposition constraint (:func:`solver.decompose`) until ``upper -
    lower <= tol * upper``: ``upper`` is the value of a feasible
    decomposition, ``lower`` a Hoelder bound from the ADMM multipliers.
    Inputs are copied to C order first, so the values do not depend on their
    memory layout.  ``tol`` must be finite and > 0, and ``(T, M)`` must be
    finite, with ``T`` 3-way and ``M`` 2-d with a row per index of ``T``'s
    coupled mode.
    """
    check_settings(locals(), tol=POSITIVE)
    # function-local: solver imports this module at load time, so a
    # module-level import of solver would be circular
    from .solver import decompose

    T, M = _operands(T, M, d.coupled_mode)
    lay = layout(d, T.shape)
    if not d.has_latent():
        value = decomposition_value([T], lay, M)
        return value, value
    _, lower, upper = decompose(T, M, lay, tol=tol)
    return lower, upper


def split_dual_bound(
    lay: ComponentLayout, split: dict[int, np.ndarray], GM: np.ndarray
) -> float:
    """``max_k ||unfold(split[k], k, GM if k is coupled)||_2 / scale_k`` over the terms.

    When the ``split[k]`` of every component's terms sum to the same tensor
    ``G``, this bounds the dual norm of ``(G, GM)`` from above: any
    decomposition of ``(T, M)`` pairs with ``(G, GM)`` term by term.  For
    the all-latent layouts, whose components have one term each, the split
    ``split[k] = G`` gives the dual norm itself.
    """
    return max(
        spectral_norm(unfold(split[mode], mode, GM if mode == lay.coupled_mode else None)) / scale
        for mode, scale, _ in lay.regularized_modes()
    )


def dual_norm_latent_type(
    T: np.ndarray, M: np.ndarray, d: NormDescriptor
) -> float:
    """Closed-form dual of the all-latent and all-scaled-latent norms.

    The dual is a maximum of spectral norms of the unfoldings divided by
    their norm-term scales, with the coupled mode's unfolding concatenated
    with the matrix.
    """
    if d.tags not in (("L", "L", "L"), ("S", "S", "S")):
        raise InvalidDescriptorError(
            f"closed-form dual available for (L,L,L) and (S,S,S) only, got {d.tags}"
        )
    T, M = _operands(T, M, d.coupled_mode)
    return split_dual_bound(layout(d, T.shape), {k: T for k in (1, 2, 3)}, M)


def dual_norm_overlapped_upper(
    T: np.ndarray, M: np.ndarray, coupled_mode: int = 1
) -> float:
    """Upper bound on the dual of the all-overlapped coupled norm.

    The exact dual is an infimum over splits of ``(T, M)`` among the mode
    terms, and only the coupled term can take the matrix.  The whole tensor
    on mode ``k`` gives ``||[T_(k) | M]||_2`` for the coupled mode and
    ``max(||T_(k)||_2, ||M||_2)`` for the others; this is the least of the three.
    ``(T, M)`` must be finite and coupled on ``coupled_mode``, as in :func:`bracket`.
    """
    T, M = _operands(T, M, coupled_mode)
    m = spectral_norm(M)
    return min(
        spectral_norm(unfold(T, k, M)) if k == coupled_mode
        else max(spectral_norm(unfold(T, k)), m)
        for k in (1, 2, 3)
    )
