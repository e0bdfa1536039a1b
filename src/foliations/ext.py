"""Ext modules Ext^k(R/I, R) as homology of the dualized free resolution.

The dual of a map F_b -> F_a is the transposed matrix between the dual free
modules (twists negated).  The kernel of the outgoing dual map is a syzygy
computation, the image of the incoming one is lifted through the kernel's
Groebner basis, and the resulting presentation feeds the module Hilbert
machinery: graded dimensions, Krull dimension, and finite-length support all
come out exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groebner import Ideal
from .hilbert import ModuleHilbert, module_hilbert
from .modules import (
    Vec,
    module_groebner,
    module_reduce,
    syzygy_generators,
    vec_is_zero,
    vec_leading,
    vec_unit,
)
from .resolutions import FreeResolution, free_resolution
from .rings import PolyRing


@dataclass(frozen=True)
class ExtModule:
    """A graded presentation of Ext^k(R/I, R) with exact graded dimensions."""

    ring: PolyRing
    k: int
    gen_twists: tuple[int, ...]
    hilbert: ModuleHilbert

    def is_zero(self) -> bool:
        return self.krull_dim == -1

    @property
    def krull_dim(self) -> int:
        return self.hilbert.krull_dim if self.gen_twists else -1

    def dimension_at(self, degree: int) -> int:
        if not self.gen_twists:
            return 0
        return self.hilbert.dimension_at(degree)

    def is_finite_length(self) -> bool:
        return self.krull_dim <= 0

    def finite_support(self) -> dict[int, int]:
        """degree -> dimension, for finite-length Ext modules."""
        if not self.gen_twists:
            return {}
        return self.hilbert.finite_support()

    def total_dimension(self) -> int:
        return sum(self.finite_support().values())


def _zero_ext(ring: PolyRing, k: int) -> ExtModule:
    return ExtModule(ring, k, (), ModuleHilbert((), ()))


def _dual_images(matrix: list[Vec], dual_source_rank: int) -> list[Vec]:
    """Transpose d: F_b -> F_a into Hom(F_a) -> Hom(F_b) (images of dual basis)."""
    return [
        tuple(matrix[j][i] for j in range(len(matrix)))
        for i in range(dual_source_rank)
    ]


def _lift(ring: PolyRing, v: Vec, basis: list[Vec]) -> list:
    """Coefficients expressing v over the module Groebner basis (must be exact).

    The division is fraction-free, so its steps are replayed with their
    scalings (``module_reduce``) and the sum divided by their product.
    """
    steps, r = module_reduce(ring, v, basis)
    if not vec_is_zero(r):
        raise AssertionError("lift through the kernel basis left a remainder")
    coeffs = [ring.zero()] * len(basis)
    scale = 1
    for a, m, b, k in steps:
        if a != 1:
            coeffs = [c.scale(a) for c in coeffs]
            scale *= a
        coeffs[k] = coeffs[k] + ring.monomial(m, b)
    if scale != 1:
        coeffs = [c.scale(Fraction(1, scale)) for c in coeffs]
    return coeffs


def ext_module(
    I: Ideal,
    k: int,
    resolution: FreeResolution | None = None,
    budget: int | None = None,
) -> ExtModule:
    """Ext^k(R/I, R) with graded dimension data."""
    ring = I.ring
    if not 0 <= k <= ring.num_vars:
        raise ValueError("homological degree out of range")
    res = resolution if resolution is not None else free_resolution(I, budget=budget)
    if k > res.length:
        return _zero_ext(ring, k)

    rank_k = len(res.twists[k])
    dual_twists = tuple(-t for t in res.twists[k])

    # kernel of the outgoing dual map Hom(F_k) -> Hom(F_{k+1})
    if k == res.length:
        kernel_gens = [vec_unit(ring, rank_k, i) for i in range(rank_k)]
    else:
        out_images = _dual_images(res.matrices[k], rank_k)
        kernel_gens = [
            v for v in syzygy_generators(out_images, ring, budget) if not vec_is_zero(v)
        ]
    if not kernel_gens:
        return _zero_ext(ring, k)
    kernel_gb = module_groebner(kernel_gens, ring, budget)

    gen_twists = []
    for v in kernel_gb:
        comp = next(i for i, p in enumerate(v) if not p.is_zero())
        gen_twists.append(v[comp].degree() + dual_twists[comp])

    # relations: the incoming dual image lifted through the kernel basis,
    # plus the syzygies among the kernel generators themselves
    relations: list[Vec] = []
    if k > 0:
        incoming = _dual_images(res.matrices[k - 1], len(res.twists[k - 1]))
        for w in incoming:
            relations.append(tuple(_lift(ring, w, kernel_gb)))
    relations.extend(syzygy_generators(kernel_gb, ring, budget))
    relations = [v for v in relations if not vec_is_zero(v)]

    if relations:
        rel_gb = module_groebner(relations, ring, budget)
        leads = [vec_leading(ring, v)[:2] for v in rel_gb]
    else:
        leads = []
    hilb = module_hilbert(tuple(gen_twists), leads, ring.num_vars)
    ext = ExtModule(ring, k, tuple(gen_twists), hilb)
    if ext.is_zero():
        return _zero_ext(ring, k)
    return ext
