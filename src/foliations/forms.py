"""Projective 1-forms, exterior calculus, and foliation constructors.

A degree-d form on P^n is a tuple of homogeneous degree-(d+1) coefficients
(F_0, ..., F_n) with the Euler relation sum z_j F_j = 0, normalized by
stripping any common monomial factor.  Every form here is projective: the
constructors write homogeneous coefficients, and ``exceptional_form``
homogenizes its affine family member by hand.  Sign conventions are fixed
here once:

    (d omega)_{ij} = dF_j/dz_i - dF_i/dz_j                    (i < j)
    (omega ^ eta)_{ijk} = F_i eta_{jk} - F_j eta_{ik} + F_k eta_{ij}
    (i_R eta)_j = sum_i z_i eta_{ij}

With these choices i_R(d omega) = (d+2) omega on every valid form, which the
test suite checks corpus-wide; integrability omega ^ d omega = 0 is
convention independent.

No exterior product is built as a polynomial: ``differential`` gives each
(d omega)_{ij} as an unsorted term list, and ``add_wedge`` expands a
component of omega ^ eta into one unsorted coefficient dict, which is only
tested for zero or read coefficient by coefficient.  The Euler relation is
checked the same way, by ``rings.add_product``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Sequence

from .groebner import Ideal, normal_form
from .hilbert import hilbert_data
from .modules import vec_integral
from .rings import (
    PolyRing,
    Polynomial,
    Rational,
    add_product,
    apply_linear_change,
    exact,
    map_to_ring,
    mono_gcd,
)


class FormError(ValueError):
    """Base class for 1-form validation failures."""

class EulerViolation(FormError):
    pass

class Inhomogeneous(FormError):
    pass

class DegreeMismatch(FormError):
    pass

class ZeroForm(FormError):
    pass

class CodimTooSmall(FormError):
    pass

class WeightConstraintViolation(FormError):
    pass


@dataclass(frozen=True)
class ProjectiveOneForm:
    """A validated homogeneous 1-form sum F_j dz_j of degree d (deg F_j = d+1)."""

    ring: PolyRing
    coefficients: tuple[Polynomial, ...]
    degree: int

    def __str__(self) -> str:
        parts = [
            f"({f}) dz{j}" for j, f in enumerate(self.coefficients) if not f.is_zero()
        ]
        return " + ".join(parts)


def proportional(F: Sequence[Polynomial], G: Sequence[Polynomial]) -> bool:
    """True when every 2x2 minor F_i*G_j - F_j*G_i (i < j) vanishes.

    Read off the terms, with no product, unless F/G could be a rational
    function that is not constant.  With (F_i, G_i) the first pair that is
    not zero, a vanishing minor F_i*G_j = F_j*G_i needs F_j and G_j to vanish
    together and, the orders being multiplicative, their leading terms to
    satisfy lt(F_i)*lt(G_j) = lt(F_j)*lt(G_i).  When every pair does and
    lt(F_i), lt(G_i) share their monomial, F is G times lc(F_i)/lc(G_i), or
    else the minors through i are multiplied out.
    """
    pairs = [(f, g) for f, g in zip(F, G) if f.terms or g.terms]
    if not all(f.terms and g.terms for f, g in pairs):
        # a zero entry against a nonzero one: only a zero tuple is proportional
        return not any(f.terms for f in F) or not any(g.terms for g in G)
    if not pairs:
        return True
    (fi, gi), rest = pairs[0], pairs[1:]
    (ei, a), (di, b) = fi.terms[0], gi.terms[0]
    for f, g in rest:
        (e, x), (d, y) = f.terms[0], g.terms[0]
        if b * x != a * y or any(p + q != r + s for p, q, r, s in zip(e, di, d, ei)):
            return False
    if ei == di and all(
        len(f.terms) == len(g.terms)
        and all(e == d and b * x == a * y for (e, x), (d, y) in zip(f.terms, g.terms))
        for f, g in pairs
    ):
        return True
    return all(fi * g == f * gi for f, g in rest)


# -- validation ---------------------------------------------------------------


def strip_common_monomial(polys: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Divide out the largest monomial dividing every term of every entry."""
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        return tuple(polys)
    ring = nonzero[0].ring
    common = None
    for p in nonzero:
        for e, _ in p.terms:
            common = e if common is None else mono_gcd(common, e)
    if common is None or all(x == 0 for x in common):
        return tuple(polys)
    def strip(p: Polynomial) -> Polynomial:
        return Polynomial(
            ring, tuple((tuple(x - y for x, y in zip(e, common)), c) for e, c in p.terms)
        )
    return tuple(strip(p) for p in polys)


def validate(coefficients: Sequence[Polynomial]) -> ProjectiveOneForm:
    """Check homogeneity, equal degrees and the Euler relation; normalize."""
    if not coefficients:
        raise ZeroForm("no coefficients")
    ring = coefficients[0].ring
    if len(coefficients) != ring.num_vars:
        raise DegreeMismatch("need one coefficient per variable")
    for f in coefficients:
        if f.ring != ring:
            raise DegreeMismatch("coefficients from different rings")
    if all(f.is_zero() for f in coefficients):
        raise ZeroForm("all coefficients vanish")
    for f in coefficients:
        if not f.is_homogeneous():
            raise Inhomogeneous(f"coefficient {f} is not homogeneous")
    degrees = {f.degree() for f in coefficients if not f.is_zero()}
    if len(degrees) != 1:
        raise DegreeMismatch(f"coefficient degrees differ: {sorted(degrees)}")
    euler: dict = {}
    for j, f in enumerate(coefficients):
        add_product(euler, ring.variable(j).terms, f.terms)
    if any(euler.values()):
        raise EulerViolation(f"sum z_j F_j = {ring.from_dict(euler)} != 0")
    stripped = strip_common_monomial(coefficients)
    degree = next(f for f in stripped if not f.is_zero()).degree() - 1
    return ProjectiveOneForm(ring, tuple(stripped), degree)


# -- exterior calculus --------------------------------------------------------


def differential(F: Sequence[Polynomial]) -> dict[tuple[int, int], list]:
    """(d omega)_{ij} = dF_j/dz_i - dF_i/dz_j for i < j, each accumulated into
    one dict and given as its nonzero (exponent, coefficient) pairs in no
    particular order: term lists for ``add_product``, never sorted."""
    out = {}
    for i, j in combinations(range(len(F)), 2):
        acc: dict = {}
        for f, v, sign in ((F[j], i, 1), (F[i], j, -1)):
            for e, c in f.terms:
                if k := e[v]:
                    d = e[:v] + (k - 1,) + e[v + 1 :]
                    acc[d] = acc.get(d, 0) + sign * k * c
        out[(i, j)] = [(e, c) for e, c in acc.items() if c]
    return out


def add_wedge(acc: dict, F: Sequence[Polynomial], eta: dict[tuple[int, int], tuple], triple) -> dict:
    """acc += (omega ^ eta)_{ijk} = F_i eta_jk - F_j eta_ik + F_k eta_ij, in one loop."""
    i, j, k = triple
    get = acc.get
    for f, g, sign in ((F[i], eta[(j, k)], 1), (F[j], eta[(i, k)], -1), (F[k], eta[(i, j)], 1)):
        for e1, c1 in f.terms:
            c1 *= sign
            for e2, c2 in g:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
    return acc


def integrability_check(form: ProjectiveOneForm) -> bool:
    """True when omega ^ d omega = 0 identically.

    Checked on the integral multiple m*omega, whose product is m^2 times
    omega's, so that no ``Fraction`` is multiplied; the first component
    that does not vanish ends the check.
    """
    F, _ = vec_integral(form.coefficients)
    dF = differential(F)
    return not any(
        any(add_wedge({}, F, dF, triple).values())
        for triple in combinations(range(len(F)), 3)
    )


# -- singular scheme ----------------------------------------------------------


def singular_ideal(form: ProjectiveOneForm) -> Ideal:
    """The ideal (F_0, ..., F_n); raises CodimTooSmall when codim Z < 2."""
    return check_codim(Ideal(form.ring, form.coefficients))


def check_codim(I: Ideal) -> Ideal:
    """I itself, once its zero set is checked to have codimension >= 2."""
    dim = hilbert_data(I).krull_dim
    if dim >= I.ring.num_vars - 1:
        raise CodimTooSmall(
            f"singular scheme has affine dimension {dim}: a common divisor survived"
        )
    return I


# -- constructors -------------------------------------------------------------


def logarithmic_form(
    factors: Sequence[Polynomial], weights: Sequence[Rational]
) -> ProjectiveOneForm:
    """omega = sum_i w_i (prod_{j != i} f_j) df_i, with sum w_i deg f_i = 0."""
    if len(factors) != len(weights) or len(factors) < 2:
        raise WeightConstraintViolation("need matching factors and weights (at least two)")
    ring = factors[0].ring
    ws = [exact(Fraction(w)) for w in weights]
    if any(w == 0 for w in ws):
        raise WeightConstraintViolation("weights must be nonzero")
    if sum(w * f.degree() for w, f in zip(ws, factors)) != 0:
        raise WeightConstraintViolation("weighted degrees must sum to zero")
    for f in factors:
        if f.is_zero() or not f.is_homogeneous():
            raise Inhomogeneous("factors must be nonzero homogeneous polynomials")
    for i, f in enumerate(factors):
        for j, g in enumerate(factors):
            if i != j and normal_form(f, [g]).is_zero():
                raise WeightConstraintViolation(f"factor {g} divides factor {f}")
    coeffs = []
    for k in range(ring.num_vars):
        acc = ring.zero()
        for i, (w, f) in enumerate(zip(ws, factors)):
            partial = f.partial_derivative(k)
            if partial.is_zero():
                continue
            rest = ring.one()
            for j, g in enumerate(factors):
                if j != i:
                    rest = rest * g
            acc = acc + (rest * partial).scale(w)
        coeffs.append(acc)
    return validate(coeffs)


def pullback_from_plane(plane: ProjectiveOneForm) -> ProjectiveOneForm:
    """Linear pull-back to P^3 under projection from (1:0:0:0)."""
    if plane.ring.num_vars != 3:
        raise DegreeMismatch("pull-back expects a plane form (3 variables)")
    target = PolyRing(4)
    lifted = [map_to_ring(g, target, [1, 2, 3]) for g in plane.coefficients]
    return validate([target.zero()] + lifted)


def exceptional_form(d: int) -> ProjectiveOneForm:
    """The affine quasi-homogeneous family member, homogenized in z0.

    The affine form is

        a1 dz1 + a2 dz2 + a3 dz3 = (1+d)(z2 - z3^(d+1)) dz1
                                 - (1+d+d^2)(z1 - z2^d z3) dz2
                                 - (1+2d+2d^2+d^3)(z2^(d+1) - z1 z3^d) dz3

    which equals i_S i_X(dVol) for the linear field
    S = (1+d+d^2) z1 d/dz1 + (1+d) z2 d/dz2 + z3 d/dz3 and the
    quasi-homogeneous field X = (1+d+d^2) z2^d d/dz1 + (1+d) z3^d d/dz2 +
    d/dz3.  Each a_j is homogenized in z0 to degree d+1 and multiplied by
    z0, and F_0 = -(z1 a1 + z2 a2 + z3 a3) is forced by the Euler relation.
    The radial pairing of the affine coefficients does not vanish at
    infinity, so the form has degree d+1, one more than the affine family
    parameter d.
    """
    if d < 2:
        raise ValueError("the family needs d >= 2")
    z0, z1, z2, z3 = PolyRing(4).variables()
    a1 = (z2 * z0**d - z3 ** (d + 1)).scale(1 + d)
    a2 = (z1 * z0**d - z2**d * z3).scale(-(1 + d + d * d))
    a3 = (z2 ** (d + 1) - z1 * z3**d).scale(-(1 + 2 * d + 2 * d * d + d**3))
    return validate([-(z1 * a1 + z2 * a2 + z3 * a3), z0 * a1, z0 * a2, z0 * a3])


def apply_projectivity(
    form: ProjectiveOneForm, matrix: Sequence[Sequence[Rational]]
) -> ProjectiveOneForm:
    """Pull back the form under z -> A z: F'_j = sum_i A_ij F_i(A z).

    With this convention the singular ideal transforms by the same
    substitution, which is the invariant the test suite pins down.
    """
    n = form.ring.num_vars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix size does not match the ring")
    substituted = [apply_linear_change(f, matrix) for f in form.coefficients]
    new_coeffs = []
    for j in range(n):
        acc = form.ring.zero()
        for i in range(n):
            c = exact(Fraction(matrix[i][j]))
            if c != 0:
                acc = acc + substituted[i].scale(c)
        new_coeffs.append(acc)
    return validate(new_coeffs)
