"""Projective 1-forms, exterior calculus, and foliation constructors.

A degree-d form on P^n is a tuple of homogeneous degree-(d+1) coefficients
(F_0, ..., F_n) with the Euler relation sum z_j F_j = 0, normalized by
stripping any common monomial factor.  Sign conventions are fixed here once:

    (d omega)_{ij} = dF_j/dz_i - dF_i/dz_j                    (i < j)
    (omega ^ eta)_{ijk} = F_i eta_{jk} - F_j eta_{ik} + F_k eta_{ij}
    (i_R eta)_j = sum_i z_i eta_{ij}

With these choices i_R(d omega) = (d+2) omega on every valid form, which the
test suite checks corpus-wide; integrability omega ^ d omega = 0 is
convention independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .groebner import Ideal, normal_form
from .hilbert import hilbert_data
from .rings import (
    PolyRing,
    Polynomial,
    Rational,
    apply_linear_change,
    exact,
    homogenize,
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

    def scale(self, c: Rational) -> ProjectiveOneForm:
        c = exact(Fraction(c))
        if c == 0:
            raise ZeroForm("cannot scale a form to zero")
        return ProjectiveOneForm(
            self.ring, tuple(f.scale(c) for f in self.coefficients), self.degree
        )

    def is_proportional_to(self, other: ProjectiveOneForm) -> bool:
        """True when every 2x2 minor f_i*g_j - f_j*g_i (i < j) vanishes."""
        if self.ring != other.ring:
            return False
        pairs = list(zip(self.coefficients, other.coefficients))
        for (fi, gi), (fj, gj) in combinations(pairs, 2):
            if fi * gj != fj * gi:
                return False
        return True


@dataclass(frozen=True)
class AffineOneForm:
    """A 1-form on affine space; coefficients need not be homogeneous."""

    ring: PolyRing
    coefficients: tuple[Polynomial, ...]


@dataclass(frozen=True)
class HomogeneousTwoForm:
    """Antisymmetric coefficients on index pairs; stored for i < j."""

    ring: PolyRing
    entries: dict[tuple[int, int], Polynomial]

    def get(self, i: int, j: int) -> Polynomial:
        if i == j:
            return self.ring.zero()
        if i < j:
            return self.entries.get((i, j), self.ring.zero())
        return -self.entries.get((j, i), self.ring.zero())

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries.values())


@dataclass(frozen=True)
class HomogeneousThreeForm:
    """Antisymmetric coefficients on index triples; stored for i < j < k."""

    ring: PolyRing
    entries: dict[tuple[int, int, int], Polynomial]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries.values())


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
    euler = ring.zero()
    for j, f in enumerate(coefficients):
        euler = euler + ring.variable(j) * f
    if not euler.is_zero():
        raise EulerViolation(f"sum z_j F_j = {euler} != 0")
    stripped = strip_common_monomial(coefficients)
    degree = next(f for f in stripped if not f.is_zero()).degree() - 1
    return ProjectiveOneForm(ring, tuple(stripped), degree)


# -- exterior calculus --------------------------------------------------------


def exterior_derivative(form: ProjectiveOneForm | AffineOneForm) -> HomogeneousTwoForm:
    F = form.coefficients
    ring = form.ring
    entries = {}
    for i, j in combinations(range(len(F)), 2):
        p = F[j].partial_derivative(i) - F[i].partial_derivative(j)
        if not p.is_zero():
            entries[(i, j)] = p
    return HomogeneousTwoForm(ring, entries)


def wedge_1_2(
    coefficients: Sequence[Polynomial], eta: HomogeneousTwoForm
) -> HomogeneousThreeForm:
    ring = eta.ring
    entries = {}
    for i, j, k in combinations(range(len(coefficients)), 3):
        p = (
            coefficients[i] * eta.get(j, k)
            - coefficients[j] * eta.get(i, k)
            + coefficients[k] * eta.get(i, j)
        )
        if not p.is_zero():
            entries[(i, j, k)] = p
    return HomogeneousThreeForm(ring, entries)


def integrability_check(form: ProjectiveOneForm | AffineOneForm) -> bool:
    """True when omega ^ d omega = 0 identically."""
    return wedge_1_2(form.coefficients, exterior_derivative(form)).is_zero()


# -- singular scheme ----------------------------------------------------------


def singular_ideal(form: ProjectiveOneForm, budget: int | None = None) -> Ideal:
    """The ideal (F_0, ..., F_n); raises CodimTooSmall when codim Z < 2."""
    return check_codim(Ideal(form.ring, form.coefficients), budget)


def check_codim(I: Ideal, budget: int | None = None) -> Ideal:
    """I itself, once its zero set is checked to have codimension >= 2."""
    dim = hilbert_data(I, budget).krull_dim
    if dim >= I.ring.num_vars - 1:
        raise CodimTooSmall(
            f"singular scheme has affine dimension {dim}: a common divisor survived"
        )
    return I


# -- constructors -------------------------------------------------------------


def projectivize(form: AffineOneForm, new_var: int = 0) -> ProjectiveOneForm:
    """Homogenize an affine form into one more variable.

    Coefficients are homogenized to the maximal degree D, each F_j picks up
    the new variable as a factor, and the new coefficient is forced by the
    Euler relation; the common monomial factor is stripped afterwards.
    """
    n = form.ring.num_vars
    target = PolyRing(n + 1, form.ring.order if form.ring.order in ("grevlex", "lex") else "grevlex")
    var_map = [i if i < new_var else i + 1 for i in range(n)]
    D = max((a.degree() for a in form.coefficients), default=-1)
    if D < 0:
        raise ZeroForm("affine form is zero")
    lifted = [map_to_ring(a, target, var_map) for a in form.coefficients]
    tilde = [homogenize(a, new_var, D) if not a.is_zero() else a for a in lifted]
    coeffs = [target.zero()] * (n + 1)
    z_new = target.variable(new_var)
    acc = target.zero()
    for old_i, a in enumerate(tilde):
        j = var_map[old_i]
        coeffs[j] = z_new * a
        acc = acc + target.variable(j) * a
    coeffs[new_var] = -acc
    return validate(coeffs)


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
    """The affine quasi-homogeneous family member, projectivized.

    The affine form is

        (1+d)(z2 - z3^(d+1)) dz1
      - (1+d+d^2)(z1 - z2^d z3) dz2
      - (1+2d+2d^2+d^3)(z2^(d+1) - z1 z3^d) dz3

    which equals i_S i_X(dVol) for the linear field
    S = (1+d+d^2) z1 d/dz1 + (1+d) z2 d/dz2 + z3 d/dz3 and the
    quasi-homogeneous field X = (1+d+d^2) z2^d d/dz1 + (1+d) z3^d d/dz2 +
    d/dz3.  The projectivization degree is computed, not assumed: the
    radial pairing of the affine coefficients does not vanish at infinity,
    so the minimal extension comes out one degree higher than the affine
    family parameter d.
    """
    if d < 2:
        raise ValueError("the family needs d >= 2")
    ring = PolyRing(3)
    z1, z2, z3 = ring.variables()
    a1 = (z2 - z3 ** (d + 1)).scale(1 + d)
    a2 = (z1 - z2**d * z3).scale(-(1 + d + d * d))
    a3 = (z2 ** (d + 1) - z1 * z3**d).scale(-(1 + 2 * d + 2 * d * d + d**3))
    return projectivize(AffineOneForm(ring, (a1, a2, a3)), new_var=0)


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
