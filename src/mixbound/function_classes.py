"""Built-in finite test-function families with exact stationary means.

Members carry callables for path evaluation plus the metadata the moment
and coupling machinery needs (mean, sup bound).  Means are analytic for the
Gaussian-marginal models; a discretized view over the marginal quantile grid
feeds the partition-complexity code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .chaining import FunctionClass
from .processes import ProcessModel, seeded_rng


@dataclass(frozen=True)
class ClassMember:
    """``func`` must be elementwise (each output entry depends only on the
    input entry at the same position): path sums run it on slices of rows.
    ``sup_bound`` is None (unbounded) or a finite bound >= 0 on |func|."""
    name: str
    func: Callable[[np.ndarray], np.ndarray]
    mean: float | None
    sup_bound: float | None = None

    def __post_init__(self) -> None:
        if self.sup_bound is not None and not 0.0 <= self.sup_bound < math.inf:
            raise ValueError(f"member {self.name!r}: sup_bound must be None or "
                             f"finite and >= 0, got {self.sup_bound}")


@dataclass(frozen=True)
class ProcessClass:
    """A finite family of test functions tied to one model's marginal."""

    members: tuple[ClassMember, ...]

    def tabulate(self, model: ProcessModel, points: int = 2001) -> FunctionClass:
        """Evaluate the members on a quantile grid of the marginal law.

        The grid carries uniform weights at mid-quantile abscissae, so the
        discrete view converges to the marginal as ``points`` grows.
        """
        sd = model.marginal_sd()
        u = (np.arange(points) + 0.5) / points
        xs = sd * ndtri(u)
        table = np.stack([m.func(xs) for m in self.members])
        weights = np.full(points, 1.0 / points)
        return FunctionClass(table=table, weights=weights)


def _gaussian_means(model: ProcessModel) -> dict[str, float]:
    sd = model.marginal_sd()
    return {
        "identity": 0.0,
        "negated": 0.0,
        "sine": 0.0,
        "tanh": 0.0,
        "witch": 0.0,
        "cosine": math.exp(-0.5 * sd * sd),
        "absval": sd * math.sqrt(2.0 / math.pi),
        "sign_centered": 0.0,
    }


_MEMBER_DEFS: dict[str, tuple[Callable, float | None, float | None]] = {
    # name -> (callable, sup bound, Lipschitz constant).  No library code reads
    # the Lipschitz constant; perfbench/tracer.py unpacks the triples.
    "identity": (lambda x: x, None, 1.0),
    "negated": (lambda x: -x, None, 1.0),
    "sine": (np.sin, 1.0, 1.0),
    "tanh": (np.tanh, 1.0, 1.0),
    "witch": (lambda x: x / (1.0 + x * x), 0.5, 1.0),
    "cosine": (np.cos, 1.0, 1.0),
    "absval": (np.abs, None, 1.0),
    "sign_centered": (lambda x: np.where(x > 0, 0.5, -0.5), 0.5, None),
}

_CATALOG: dict[str, tuple[str, ...]] = {
    "identity": ("identity",),
    "halfpair": ("identity", "negated"),
    "lipschitz4": ("sine", "tanh", "witch", "cosine"),
    "lipschitz5": ("sine", "tanh", "witch", "cosine", "absval"),
    "indicator": ("sign_centered",),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def make_class(name: str, model: ProcessModel) -> ProcessClass:
    """Instantiate a built-in family with means exact for ``model``.

    Only the Gaussian-marginal kinds have analytic means; for the renewal
    chain build a custom class with Monte Carlo means instead.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown class {name!r}; available: {', '.join(catalog_names())}")
    if model.kind == "lazy_renewal":
        raise ValueError("built-in means are analytic for Gaussian marginals only")
    means = _gaussian_means(model)
    members = tuple(
        ClassMember(name=m, func=_MEMBER_DEFS[m][0], mean=means[m],
                    sup_bound=_MEMBER_DEFS[m][1])
        for m in _CATALOG[name]
    )
    return ProcessClass(members=members)


def mc_means(members, model: ProcessModel, draws: int = 10**7,
             seed: int = 0) -> tuple[ClassMember, ...]:
    """Replace member means by a high-precision stationary Monte Carlo pass."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = seeded_rng(seed, 0xAEA5)
    if model.kind == "ma":
        sample = model.sample_blocks(max(1, draws // 10**4), 10**4, rng).ravel()
    else:
        sample = model.stationary_sample(draws, rng)
    return tuple(replace(m, mean=float(m.func(sample).mean())) for m in members)
