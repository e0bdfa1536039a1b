"""The top Ext module Ext^p(R/I, R) read off the end of a free resolution.

With p the length of the minimal resolution F_p -> ... -> F_0 of R/I, the
dual complex ends at Hom(F_p, R), so Ext^p is the cokernel of the transposed
last map Hom(F_{p-1}, R) -> Hom(F_p, R): the free module with twists minus
those of F_p, modulo the images of the dual basis of F_{p-1}.  One module
Groebner basis of those images gives its Hilbert data: graded dimensions,
Krull dimension and finite-length support, all exact.
"""

from __future__ import annotations

from .hilbert import ModuleHilbert, module_hilbert
from .modules import Vec, module_groebner, vec_is_zero, vec_leading
from .resolutions import FreeResolution


def _dual_images(matrix: list[Vec], dual_source_rank: int) -> list[Vec]:
    """Transpose d: F_b -> F_a into Hom(F_a) -> Hom(F_b) (images of dual basis)."""
    return [
        tuple(matrix[j][i] for j in range(len(matrix)))
        for i in range(dual_source_rank)
    ]


def top_ext(resolution: FreeResolution) -> ModuleHilbert:
    """Hilbert data of Ext^p(R/I, R), p = resolution.length >= 1."""
    ring = resolution.ring
    p = resolution.length
    relations = [
        v
        for v in _dual_images(resolution.matrices[p - 1], len(resolution.twists[p - 1]))
        if not vec_is_zero(v)
    ]
    leads = [vec_leading(ring, v)[:2] for v in module_groebner(relations, ring)]
    return module_hilbert(tuple(-t for t in resolution.twists[p]), leads, ring.num_vars)
