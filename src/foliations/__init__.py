"""Exact toolkit for codimension-one holomorphic foliations on P^2 and P^3.

The package is organized in layers:

* ``rings`` -- sparse exact-rational polynomials and graded monomial orders.
* ``linalg`` -- one exact fraction-free elimination over Q: echelon, rank
  and kernel bases of dense rational matrices.
* ``modules`` -- the one Buchberger engine: module Groebner bases, division,
  syzygies and minimal resolution steps, with ideals as rank-1 modules.
* ``groebner``, ``resolutions``, ``hilbert``, ``saturation``, ``ext`` -- the
  commutative algebra built on it (ideals and reduced bases, free
  resolutions, Hilbert series, colon/saturation, Ext modules).
* ``forms`` -- projective 1-forms, exterior calculus, singular schemes, and
  the standard constructors (logarithmic, pull-back, exceptional).
* ``classify`` -- decision procedures: saturated / curve / ACM / split,
  splitting type, Rao dimensions.
* ``determine`` -- linear syzygy families and determination of a split
  foliation by its singular scheme.
* ``formfile`` / ``cli`` -- the input language and command-line surface.
"""

from .rings import (
    GREVLEX,
    LEX,
    PolyRing,
    Polynomial,
    RingMismatch,
    apply_linear_change,
    dehomogenize,
    grevlex_cheapest,
    homogenize,
)

__all__ = [
    "GREVLEX",
    "LEX",
    "PolyRing",
    "Polynomial",
    "RingMismatch",
    "apply_linear_change",
    "dehomogenize",
    "grevlex_cheapest",
    "homogenize",
]

__version__ = "0.1.0"
