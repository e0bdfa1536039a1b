"""The top Ext module Ext^p(R/I, R) read off the end of a free resolution.

With p the length of the minimal resolution F_p -> ... -> F_0 of R/I, the
dual complex ends at Hom(F_p, R), so Ext^p is the cokernel of the transposed
last map Hom(F_{p-1}, R) -> Hom(F_p, R): the free module with twists minus
those of F_p, modulo the images of the dual basis of F_{p-1}.  The leads of
one integral module Groebner basis of those images give its Hilbert data:
graded dimensions, Krull dimension and finite-length support, all exact.
"""

from __future__ import annotations

from .hilbert import ModuleHilbert, module_hilbert
from .modules import integral_basis, vec_is_zero
from .resolutions import FreeResolution


def top_ext(resolution: FreeResolution) -> ModuleHilbert:
    """Hilbert data of Ext^p(R/I, R), p = resolution.length >= 1."""
    ring = resolution.ring
    p = resolution.length
    # the transposed last map: the images of the dual basis of F_{p-1}
    relations = [v for v in zip(*resolution.matrices[p - 1]) if not vec_is_zero(v)]
    leads = [lead[:2] for lead in integral_basis(relations, ring)[1]]
    return module_hilbert(tuple(-t for t in resolution.twists[p]), leads, ring.num_vars)
