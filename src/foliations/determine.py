"""Determination of a split foliation by its singular scheme.

The split gate and the splitting type are read off ``classify(form)``, the
one analysis of the form.  The graded syzygies of degree k of the
coefficient tuple are the kernel of the products z^m * F_i, deg m = k, as
dense columns.  A linear syzygy sum_j l_j F_j = 0, l_j =
sum_i M_ij z_i, is held only as its 4x4 matrix M, read straight off a kernel
row (the Euler relation is the identity matrix); only ``cli syzygies``
renders the l_j as linear forms.  Invertible members of the matrix pencil
produce every distribution with the same singular scheme.  The integrable
members are cut out by a quadratic system S in the pencil parameters: the
coefficients of omega ^ d omega, one block per pair of parameters, expanded
when first read.  The degenerate locus det, the pencil's determinant, is
expanded over ``int`` by ``rings.add_product``, of the pencil with its rows
scaled integral, only for the certificate and ``cli family``.
The base sits at e_0; L = {alpha : member(alpha) in Q*base}.

What is verified where:

* a witness: ``_walk``, run before S is put together, tries e_k and
  e_0 + v*e_k (k = 1..p-1, eight steps v) and keeps a member only when it
  solves S (read off the blocks of its plane), is off det = 0 (its matrix
  has full rank) and is new; the member is validated and checked once, and
  a witness must span the base's forms (``_same_span``: the ideals, so the
  schemes, agree).  Either failing is an engine bug.  When S = 0 the walk
  is complete: if L is not everything, some e_k is not in L, and then no
  e_0 + v*e_k is, while det(I + v*M_k) has degree <= 4 in v and is 1 at
  v = 0, so at least four of the eight steps give an invertible member;
* ``unique``: ``_only_degenerate_or_base`` shows det * l in rad(S) for
  every linear form l vanishing on L, so every integrable member is
  degenerate or a multiple of the base, by a constant lead of the loop's
  integral basis; it reads every block of S;
* ``inconclusive`` is left when an active ``modules.pair_budget`` runs out
  in the family analysis, or when an integrable member exists that no unit
  line reaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import lcm, prod
from operator import add

from .classify import classify
from .forms import (
    FormError,
    ProjectiveOneForm,
    add_wedge,
    differential,
    integrability_check,
    proportional,
    validate,
)
from .groebner import Ideal
from .hilbert import hilbert_data
from .linalg import echelon, kernel_basis, rank
from .modules import InternalInconsistency, StepBudgetExceeded, vec_integral
from .rings import Exponent, PolyRing, Polynomial, Rational, add_product, exact


def _combination(weights, polys: tuple[Polynomial, ...]) -> Polynomial:
    """sum_j weights[j] * polys[j], integral coefficients stored as ``int``.

    The terms keep the exponent tuples of ``polys``, so a kept member or
    witness shares them with the family instead of holding copies.
    """
    acc: dict = {}
    for c, f in zip(weights, polys):
        if c:
            for e, x in f.terms:
                acc[e] = acc.get(e, 0) + c * x
    return polys[0].ring.from_dict(acc)


def _dense(rows: list) -> list[list[Rational]]:
    """Rows of (key, value) pairs as dense rows, with a column per key of any row."""
    columns = {k: c for c, k in enumerate(dict.fromkeys(k for row in rows for k, _ in row))}
    out: list[list[Rational]] = [[0] * len(columns) for _ in rows]
    for dense, row in zip(out, rows):
        for k, x in row:
            dense[columns[k]] = x
    return out


def monomials_of_degree(ring: PolyRing, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, descending as tuples."""
    if degree < 0:
        return []
    n = ring.num_vars
    # the multisets of variables come in lex order, so their exponents descend
    return [tuple(map(c.count, range(n))) for c in combinations_with_replacement(range(n), degree)]


def _product_rows(coefficients: tuple[Polynomial, ...], entry_degree: int) -> list[list[Rational]]:
    """The products z^m * F_i as dense rows, row i*N + k for the k-th of the N
    monomials m of the entry degree (``monomials_of_degree``: in degree 1, z_k),
    with a column only for each monomial that occurs in a product."""
    monos = monomials_of_degree(coefficients[0].ring, entry_degree)
    return _dense([[(tuple(map(add, e, m)), c) for e, c in f.terms] for f in coefficients for m in monos])


def graded_syzygy_rows(coefficients: tuple[Polynomial, ...], entry_degree: int) -> list[list[Rational]]:
    """Basis of {(g_i) : sum g_i F_i = 0} with deg g_i = entry_degree: the kernel
    of the transposed product rows, g_i at columns i*N..i*N+N-1, read off the
    RREF, which neither the order of the rows nor the absent zero rows change."""
    if entry_degree < 0:
        return []
    rows = _product_rows(coefficients, entry_degree)
    return kernel_basis(list(zip(*rows)), len(rows))


def linear_syzygy_space(form: ProjectiveOneForm) -> list[tuple[tuple[Rational, ...], ...]]:
    """The matrices M of a basis of the linear syzygies sum_j (sum_i M_ij z_i) F_j = 0:
    Euler (the identity) first, the rest in echelon form, each divided by its pivot."""
    n = form.ring.num_vars
    # a kernel row holds M_ij at j*n + i (``graded_syzygy_rows``)
    euler = [int(i == j) for j in range(n) for i in range(n)]
    out = []
    for row in echelon([euler] + graded_syzygy_rows(form.coefficients, 1)):
        pivot = next(x for x in row if x)
        row = [x // pivot if x % pivot == 0 else Fraction(x, pivot) for x in row]
        out.append(tuple(tuple(row[j * n + i] for j in range(n)) for i in range(n)))
    return out


def constant_syzygy_space(form: ProjectiveOneForm) -> list[tuple[Rational, ...]]:
    """Basis of {constants (a_0..a_3) : sum a_i F_i = 0}; nonzero iff b = 1."""
    return [tuple(exact(x) for x in v) for v in graded_syzygy_rows(form.coefficients, 0)]


@dataclass
class DistributionFamily:
    """All distributions sharing the singular scheme of a split foliation."""

    base: ProjectiveOneForm
    matrices: list[tuple[tuple[Rational, ...], ...]]
    parameter_ring: PolyRing
    member_tuples: list[tuple[Polynomial, ...]]
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # member k -> (m*w_k, m, d(m*w_k)), the least m > 0 making m*w_k integral
    _integral: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def parameter_dim(self) -> int:
        return len(self.member_tuples)

    def member_coefficients(self, alpha) -> tuple[Polynomial, ...]:
        """sum_k alpha_k * member_k, one coordinate per syzygy."""
        if len(alpha) != self.parameter_dim:
            raise ValueError(
                f"parameter {alpha} has {len(alpha)} coordinates, not {self.parameter_dim}"
            )
        return tuple(_combination(alpha, column) for column in zip(*self.member_tuples))

    def block(self, k: int, j: int) -> dict[tuple, Rational]:
        """The coefficient of a_k a_j (k <= j) in omega_a ^ d omega_a, omega_a = sum a_k w_k:
        w_k ^ dw_j + w_j ^ dw_k, or w_k ^ dw_k when k = j, as (component, monomial) -> c != 0.
        Expanded when first read, from m_k w_k and m_j w_j and divided by m_k m_j after, so
        that no ``Fraction`` is multiplied, and kept."""
        if (k, j) not in self._blocks:
            for i in {k, j} - self._integral.keys():
                t, m = vec_integral(self.member_tuples[i])
                self._integral[i] = t, m, differential(t)
            (wk, mk, dk), (wj, mj, dj) = self._integral[k], self._integral[j]
            m = mk * mj
            out = self._blocks[(k, j)] = {}
            for triple in combinations(range(self.base.ring.num_vars), 3):
                acc = add_wedge({}, wk, dj, triple)
                if j > k:
                    add_wedge(acc, wj, dk, triple)
                out.update(((triple, e), c if m == 1 else Fraction(c, m)) for e, c in acc.items() if c)
        return self._blocks[(k, j)]

    @cached_property
    def degenerate_locus(self) -> Polynomial:
        """det of the pencil sum_k a_k M_k, expanded when first read.  Row i
        times the lcm s_i of its denominators is integral, so the minors
        multiply ``int``s, and det = det(diag(s) P) / prod s_i."""
        n, ms, units = self.base.ring.num_vars, self.matrices, self.parameter_ring.variables()
        scales = [lcm(*(m[i][j].denominator for m in ms for j in range(n))) for i in range(n)]
        pencil = [[_combination([m[i][j] * s for m in ms], units) for j in range(n)] for i, s in enumerate(scales)]
        return _poly_det(pencil, self.parameter_ring).scale(Fraction(1, prod(scales)))

    def is_degenerate(self, point) -> bool:
        """det = 0 at the point: the matrix sum_k point_k M_k is singular."""
        n, terms = self.base.ring.num_vars, [(x, m) for x, m in zip(point, self.matrices) if x]
        return rank([[sum(x * m[i][j] for x, m in terms) for j in range(n)] for i in range(n)]) < n


def _poly_det(entries: list[list[Polynomial]], ring: PolyRing) -> Polynomial:
    """The determinant by cofactor expansion along each row from the bottom up.

    The minors of the lower rows are kept per column set as unsorted
    coefficient dicts, so each is expanded once and nothing is sorted
    before the determinant itself.
    """
    n = len(entries)
    minors = {(): {(0,) * ring.num_vars: 1}}
    for r in range(n - 1, -1, -1):
        lower, minors = minors, {}
        for cols in combinations(range(n), n - r):
            acc = minors[cols] = {}
            for t, j in enumerate(cols):
                rest = lower[cols[:t] + cols[t + 1 :]].items()
                add_product(acc, entries[r][j].terms, rest, -1 if t % 2 else 1)
    return ring.from_dict(minors[tuple(range(n))])


def distribution_family(form: ProjectiveOneForm) -> DistributionFamily:
    """The syzygy-parameterized family; requires a split base foliation."""
    if not classify(form).is_split:
        raise ValueError("the family construction requires a split foliation")
    return _family(form)


def _family(form: ProjectiveOneForm) -> DistributionFamily:
    """The family of a form that ``classify`` found split."""
    matrices = linear_syzygy_space(form)
    members = [tuple(_combination(row, form.coefficients) for row in m) for m in matrices]
    return DistributionFamily(form, matrices, PolyRing(len(matrices)), members)


# -- the quadratic integrability system ----------------------------------------


def integrability_system(family: DistributionFamily) -> list[Polynomial]:
    """Quadrics in the parameters whose zero locus is the integrable members.

    Reads every block: the entry of block (k, j) at a key (component,
    monomial) is the coefficient of a_k a_j in that key's quadric, returned
    primitive, each once, sorted by their terms.  A nonzero block (0, 0),
    the base's own, needs a base that is not integrable, which is asserted
    against ``integrability_check(family.base)``: an independent check, where
    reading it off the block would assert a tautology; an empty block cannot
    trip it, so the check runs only on a nonzero one.
    """
    pring = family.parameter_ring
    if family.block(0, 0) and integrability_check(family.base):
        raise AssertionError("integrable base contributed a pure base-parameter term")
    collected: dict[tuple, dict[tuple[int, ...], Rational]] = {}
    for k in range(family.parameter_dim):
        for j in range(k, family.parameter_dim):
            a_kj = tuple((t == k) + (t == j) for t in range(pring.num_vars))
            for key, c in family.block(k, j).items():
                collected.setdefault(key, {})[a_kj] = c
    system: list[Polynomial] = []
    seen = set()
    for quad in collected.values():
        q = pring.from_dict(quad).primitive()
        if q.terms not in seen:
            seen.add(q.terms)
            system.append(q)
    # in one order, however the table was filled: the system's Groebner basis
    # reduces its generators in the order given, and its pairs count against
    # an active pair budget
    key = pring.exp_key
    return sorted(system, key=lambda q: [(key(e), c) for e, c in q.terms])


@dataclass
class FamilyIntegrability:
    """Outcome of solving the integrability system over the family."""

    kind: str  # "finite" | "positive" | "inconclusive"
    members: list[tuple[tuple[Rational, ...], ProjectiveOneForm]]


# e_k, then e_0 + v*e_k for v = 1, -1, 2, -2, 3, 1/2, 1/3, -3: (a, b) is a*e_0 + b*e_k
_LINE = ((0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (1, 3), (2, 1), (3, 1), (1, -3))


def _walk(family: DistributionFamily, count: int) -> list[tuple[tuple[Rational, ...], ProjectiveOneForm]]:
    """The base, then up to ``count - 1`` integrable members on the unit lines.

    A point is kept when, in this order, it solves the system, lies off the
    degenerate locus (both tested at a*e_0 + b*e_k, on integers) and gives
    coefficients not proportional to a kept member's; only then is its
    member validated and checked.  On line k, S is a^2 B_00 + ab B_0k +
    b^2 B_kk, a quadric per key of the blocks B, so a line reads only the
    blocks of its plane (e_0, e_k).  A line whose e_k lies in L is skipped:
    each of its members is a multiple of the base, or zero.
    """
    p = family.parameter_dim
    found = [(tuple(int(i == 0) for i in range(p)), family.base)]
    for k in range(1, p):
        if proportional(family.member_tuples[k], family.base.coefficients):
            continue  # e_k is in L, and so is every point of its line
        for a, b in _LINE:
            if len(found) >= count:
                return found
            plane = (family.block(0, 0), a * a), (family.block(0, k), a * b), (family.block(k, k), b * b)
            at = (sum(w * B.get(key, 0) for B, w in plane) for key in set().union(*(B for B, _ in plane)))
            point = tuple(a * (i == 0) + b * (i == k) for i in range(p))
            if any(at) or family.is_degenerate(point):
                continue
            alpha = point if a <= 1 else tuple(exact(Fraction(x, a)) for x in point)
            coefficients = family.member_coefficients(alpha)
            if any(proportional(coefficients, f.coefficients) for _, f in found):
                continue
            try:
                form = validate(coefficients)
            except FormError as exc:
                raise InternalInconsistency(f"the member at {alpha} is not a form: {exc}") from exc
            if not integrability_check(form):
                raise InternalInconsistency(f"the member at {alpha} solves S but is not integrable")
            found.append((alpha, form))
    return found


def _only_degenerate_or_base(family: DistributionFamily, system: list[Polynomial]) -> bool:
    """Is det * l in rad(S) for every linear form l vanishing on L?

    L is read off the kernel of the columns [member tuples | base], the l
    off the kernel of L.  Each membership is 1 in S + (1 - y * det * l), one
    more variable y (Rabinowitsch; Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, 4.2): the ideal's integral Groebner basis has a constant lead.
    """
    p = family.parameter_dim
    tuples = family.member_tuples + [family.base.coefficients]
    vectors = _dense([[((i, e), c) for i, f in enumerate(t) for e, c in f.terms] for t in tuples])
    span = [v[:p] for v in kernel_basis(list(zip(*vectors)), p + 1)]
    ring = PolyRing(p + 1)  # y is the last variable
    det, *lifted = (
        ring.from_dict({e + (0,): c for e, c in f.terms}) for f in [family.degenerate_locus] + system
    )
    y_det = ring.variable(p) * det
    for ell in kernel_basis(span, p):
        h = y_det * _combination(ell, ring.variables()[:p])
        if all(any(e) for _, e, _ in Ideal(ring, lifted + [ring.one() - h]).basis()[1]):
            return False
    return True


def integrable_members(family: DistributionFamily) -> FamilyIntegrability:
    """The kind of V(S), by dim R/S = dim R/S^sat >= 1 (V(S) holds the base
    point; "inconclusive" if an active pair budget runs out first), and up to three
    members of ``_walk``."""
    system = integrability_system(family)
    members = _walk(family, 3)
    if not system:
        return FamilyIntegrability("positive" if family.parameter_dim > 1 else "finite", members)
    try:
        dim = hilbert_data(Ideal(family.parameter_ring, system)).krull_dim
    except StepBudgetExceeded:
        return FamilyIntegrability("inconclusive", members)
    if dim <= 0:
        raise AssertionError("the base point solves the system; empty solution set is impossible")
    return FamilyIntegrability("finite" if dim == 1 else "positive", members)


# -- determination verdict -------------------------------------------------------


@dataclass
class Determination:
    kind: str  # "unique" | "non-unique" | "inconclusive"
    route: str
    witness: ProjectiveOneForm | None = None


def _same_span(F: tuple[Polynomial, ...], G: tuple[Polynomial, ...]) -> bool:
    """(F) = (G) for tuples of forms of one degree: both span one space of forms.

    An ideal generated in one degree is spanned there by its generators, so
    the ideals agree exactly when rank F = rank G = rank (F, G), with a
    column per monomial of either tuple.
    """
    rows = _dense([f.terms for f in F + G])
    both = rank(rows)
    return rank(rows[: len(F)]) == both and rank(rows[len(F) :]) == both


def is_determined_by_singular_scheme(form: ProjectiveOneForm) -> Determination:
    """Is the foliation the only one with its singular scheme?

    The cheap criteria first: splitting type a <= b <= -1, or a type-(1, 1-d)
    pull-back with d != 1, is unique.  Else the family decides, by the first
    witness of ``_walk`` or by the certificate (module docstring).
    """
    report = classify(form)
    if not report.is_split:
        raise ValueError("determination analysis applies to split foliations")
    a, b = report.splitting_type
    if b <= -1:
        return Determination("unique", "splitting type a <= b <= -1")
    if b == 1 and report.degree != 1:
        return Determination("unique", "linear pull-back of degree != 1")
    family = _family(form)
    for _, w in _walk(family, 2)[1:]:
        if w.degree != form.degree or not _same_span(w.coefficients, form.coefficients):
            raise InternalInconsistency(f"the member {w} has another singular ideal")
        return Determination("non-unique", "integrable family member", w)
    try:
        unique = _only_degenerate_or_base(family, integrability_system(family))
    except StepBudgetExceeded:
        return Determination("inconclusive", "family analysis (budget exhausted)")
    if unique:
        return Determination("unique", "every integrable member is degenerate or a multiple of the base")
    return Determination("inconclusive", "family analysis (no witness on the unit lines)")
