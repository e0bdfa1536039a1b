"""Exact toolkit for codimension-one holomorphic foliations on P^2 and P^3.

The package is organized in layers:

* ``rings`` -- sparse exact-rational polynomials in one order, grevlex with
  the last variable cheapest; ``add_product`` expands a sum of products into
  one unsorted coefficient dict (``forms.add_wedge`` runs its loop over three
  products at once), which the exact identities outside the Buchberger loop
  (omega ^ d omega, the Euler relation, the integrability system, the
  pencil's determinant, syzygy certificates) test or read without sorting.
* ``linalg`` -- one exact fraction-free elimination over Q: echelon, rank
  and kernel bases of dense rational matrices.
* ``modules`` -- the one Buchberger engine: module Groebner bases, division,
  syzygies and minimal resolution steps, with ideals as rank-1 modules.
* ``groebner``, ``resolutions``, ``hilbert``, ``saturation``, ``ext`` -- the
  commutative algebra built on it (ideals holding one Groebner basis each,
  step 0 of their resolution or the loop's integral one, whose
  interreduction is their reduced basis; free resolutions; one Hilbert
  series type for R/I and, shifted, for the top Ext; saturation as I : l^oo
  for a linear form l that the Hilbert polynomial certifies, read off the
  held basis for l = z3, with colon ideals as its oracle; the top Ext of a
  resolution).
* ``forms`` -- projective 1-forms, exterior calculus into unsorted
  coefficient dicts, singular schemes, and the standard constructors
  (logarithmic, pull-back, exceptional).
* ``classify`` -- ``classify``, the one report of the decisions and the one
  way into their analysis: saturated / curve / ACM / split, splitting type,
  Rao dimensions, Betti table.
* ``determine`` -- read through ``classify``: graded syzygies as kernels of
  the product rows, linear ones held as 4x4 matrices, their pencil's
  families and determination of a split foliation by its singular scheme:
  a witness from a walk along the unit lines of the parameters, or
  uniqueness certified by one radical-membership basis.
* ``formfile`` / ``cli`` -- the input language and command-line surface.
"""

from .rings import PolyRing, Polynomial, RingMismatch, apply_linear_change

__all__ = ["PolyRing", "Polynomial", "RingMismatch", "apply_linear_change"]

__version__ = "0.1.0"
