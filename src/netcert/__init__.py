"""Certified output bounds and robustness radii for fully connected networks."""

from .model import (
    Network,
    PerturbationSpec,
    ModelError,
    forward,
    forward_batch,
    load_network,
    save_network,
    load_sample,
    save_sample,
    generate_random_network,
)
from .relax import LineSpaces, line_space, validate_line
from .crown import LayerBounds, margins, propagate
from .frown import OptimizerConfig, frown_propagate, optimize_bounds
from .lp import RelaxationMenu, build_lp, lp_propagate, solve
from .oracle import ExactRange, exact_output_functional_range, sample_check
from .certify import Certificate, certified_at, search_epsilon

__all__ = [
    "Network", "PerturbationSpec", "ModelError",
    "forward", "forward_batch", "load_network", "save_network",
    "load_sample", "save_sample", "generate_random_network",
    "LineSpaces", "line_space", "validate_line",
    "LayerBounds", "margins", "propagate",
    "OptimizerConfig", "frown_propagate", "optimize_bounds",
    "RelaxationMenu", "build_lp", "lp_propagate", "solve",
    "ExactRange", "exact_output_functional_range", "sample_check",
    "Certificate", "certified_at", "search_epsilon",
]
