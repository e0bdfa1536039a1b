"""Determination of a split foliation by its singular scheme.

A linear syzygy sum_j l_j F_j = 0 of the coefficient tuple, l_j =
sum_i M_ij z_i, is held only as its 4x4 matrix M, read straight off a kernel
row (the Euler relation is the identity matrix); only ``cli syzygies``
renders the l_j as linear forms.  Invertible members of the matrix pencil
produce every distribution with the same singular scheme.  Integrable
members are cut out by a quadratic system in the pencil parameters, which is
solved by Groebner methods over Q; verdicts are backed by verified
witnesses, never by a dimension claim alone.

What is verified where:

* the system's coefficients are those of omega ^ d omega, so a parameter
  point solves the system exactly when its member is integrable as an
  identity; a scan point is tested on the system first;
* the system and the degenerate locus (the pencil's determinant) are
  expanded into unsorted coefficient dicts (``rings.add_product``), and a
  member is summed into one; each polynomial is sorted once.  The system
  and the locus are homogeneous in the parameters, so a scan candidate is
  tested at its least integral multiple, on integers (the quadrics and the
  locus made primitive), while its member is built from the candidate;
* every member ``integrable_members`` reports is validated and runs
  ``integrability_check`` once, just before it is kept, so candidates that
  are degenerate or proportional to a kept member cost neither;
* a witness of non-uniqueness is certified by its own integrability check
  and by I_w = I: both tuples are forms of one degree, so the ideals agree
  exactly when the tuples span one space (``_same_span``, three ranks).
  Equal ideals have equal saturations, so no witness is resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import lcm

from .classify import _Analysis, _report_from, _split_from, graded_syzygy_rows
from .forms import (
    FormError,
    ProjectiveOneForm,
    add_wedge,
    differential,
    integrability_check,
    proportional,
    validate,
)
from .groebner import Ideal, ideal_equal
from .hilbert import hilbert_data
from .linalg import echelon, rank
from .modules import StepBudgetExceeded, vec_integral
from .rings import PolyRing, Polynomial, Rational, add_product, exact
from .saturation import saturate


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


@dataclass
class DistributionFamily:
    """All distributions sharing the singular scheme of a split foliation."""

    base: ProjectiveOneForm
    matrices: list[tuple[tuple[Rational, ...], ...]]
    parameter_ring: PolyRing
    member_tuples: list[tuple[Polynomial, ...]]
    degenerate_locus: Polynomial

    @property
    def parameter_dim(self) -> int:
        return len(self.member_tuples)

    def _weights(self, alpha) -> list[Rational]:
        """The exact coordinates of a parameter point, one per syzygy."""
        if len(alpha) != self.parameter_dim:
            raise ValueError(
                f"parameter {alpha} has {len(alpha)} coordinates, not {self.parameter_dim}"
            )
        return [exact(a) for a in alpha]

    def member_coefficients(self, alpha) -> tuple[Polynomial, ...]:
        weights = self._weights(alpha)
        return tuple(_combination(weights, column) for column in zip(*self.member_tuples))


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


def distribution_family(form: ProjectiveOneForm, budget: int | None = None) -> DistributionFamily:
    """The syzygy-parameterized family; requires a split base foliation."""
    return _family_from(_Analysis.of(form, budget))


def _family_from(analysis: _Analysis) -> DistributionFamily:
    if not _split_from(analysis):
        raise ValueError("the family construction requires a split foliation")
    form = analysis.form
    matrices = linear_syzygy_space(form)
    param_ring = PolyRing(len(matrices))
    n = form.ring.num_vars
    units = param_ring.variables()
    pencil = [
        [_combination([m[i][j] for m in matrices], units) for j in range(n)] for i in range(n)
    ]
    locus = _poly_det(pencil, param_ring)
    members = [tuple(_combination(row, form.coefficients) for row in m) for m in matrices]
    return DistributionFamily(form, matrices, param_ring, members, locus)


# -- the quadratic integrability system ----------------------------------------


def integrability_system(family: DistributionFamily) -> list[Polynomial]:
    """Quadrics in the parameters whose zero locus is the integrable members.

    Expands (sum a_k w_k) ^ d(sum a_j w_j): the coefficient of a_k a_j
    (k <= j) is w_k ^ dw_j + w_j ^ dw_k, accumulated per 3-form component
    into one coefficient dict and read off per z-monomial into the table
    (component, monomial) -> {a_k a_j: c}, each entry of which is a quadric;
    they are returned primitive, each once, sorted by their terms.
    The products are taken of the integral multiples m_k w_k and divided by
    m_k m_j after, so that no ``Fraction`` is multiplied.  When the base is
    integrable the pure base-parameter block must vanish, which is
    asserted against ``integrability_check(family.base)``: an independent
    check of that block, where reading it off the block would assert a
    tautology.
    """
    pring = family.parameter_ring
    p = family.parameter_dim
    tuples, multipliers = zip(*(vec_integral(t) for t in family.member_tuples))
    derivs = [differential(t) for t in tuples]
    triples = list(combinations(range(family.base.ring.num_vars), 3))
    collected: dict[tuple, dict[tuple[int, ...], Rational]] = {}
    for k in range(p):
        for j in range(k, p):
            m = multipliers[k] * multipliers[j]
            a_kj = tuple((t == k) + (t == j) for t in range(pring.num_vars))
            for triple in triples:
                acc = add_wedge({}, tuples[k], derivs[j], triple)
                if j > k:
                    add_wedge(acc, tuples[j], derivs[k], triple)
                for e, c in acc.items():
                    if c:
                        quad = collected.setdefault((triple, e), {})
                        quad[a_kj] = c if m == 1 else Fraction(c, m)
    base_integrable = integrability_check(family.base)
    base_block = (2,) + (0,) * (pring.num_vars - 1)
    system: list[Polynomial] = []
    seen = set()
    for quad in collected.values():
        if base_integrable and quad.get(base_block):
            raise AssertionError("integrable base contributed a pure base-parameter term")
        q = pring.from_dict(quad).primitive()
        if q.terms not in seen:
            seen.add(q.terms)
            system.append(q)
    # in one order, however the table was filled: the system's Groebner basis
    # reduces its generators in the order given, and a pair budget counts that run
    key = pring.exp_key
    return sorted(system, key=lambda q: [(key(e), c) for e, c in q.terms])


@dataclass
class FamilyIntegrability:
    """Outcome of solving the integrability system over the family."""

    kind: str  # "finite" | "positive" | "inconclusive"
    complete: bool
    members: list[tuple[tuple[Rational, ...], ProjectiveOneForm]]

    def non_base_members(self, base: ProjectiveOneForm) -> list[ProjectiveOneForm]:
        return [f for _, f in self.members if not f.is_proportional_to(base)]


@cache
def _scan_points(p: int) -> tuple[tuple[tuple[Rational, ...], tuple[int, ...]], ...]:
    """Each scan candidate with its least integral multiple, where the scan's
    zero tests, homogeneous in the parameters, are evaluated on integers."""
    points = []
    for alpha in _scan_candidates(p):
        den = lcm(*(a.denominator for a in alpha))
        points.append((alpha, tuple(int(a * den) for a in alpha)))
    return tuple(points)


@cache
def _scan_candidates(p: int) -> tuple[tuple[Rational, ...], ...]:
    values = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(1, 3), -3)
    candidates: list[tuple[Rational, ...]] = []
    for k in range(1, p):
        unit = tuple(int(i == k) for i in range(p))
        candidates.append(unit)
        for v in values:
            candidates.append(tuple(int(i == 0) + (v if i == k else 0) for i in range(p)))
    if p <= 3:
        for combo in product((-2, -1, 0, 1, 2), repeat=p):
            if any(combo):
                candidates.append(combo)
    return tuple(candidates)


def integrable_members(
    family: DistributionFamily, budget: int | None = None
) -> FamilyIntegrability:
    """Classify the integrable members of the family.

    The quadratic system is solved by Groebner bases in the parameter ring;
    the dimension verdict comes from Hilbert data of the saturated solution
    ideal.  A scan point is kept when, in this order, it solves the system
    (so its member is integrable as an identity), lies off the degenerate
    locus (its matrix is invertible) and gives member coefficients not
    proportional to a kept member's; only then is the member validated and
    re-verified by one integrability check.
    """
    p = family.parameter_dim
    base_alpha = tuple(int(i == 0) for i in range(p))
    base_member = (base_alpha, family.base)
    if p == 1:
        return FamilyIntegrability("finite", True, [base_member])
    system = integrability_system(family)
    pring = family.parameter_ring
    locus = family.degenerate_locus.primitive()

    def collect_witnesses(count: int) -> list[tuple[tuple[Rational, ...], ProjectiveOneForm]]:
        found = [base_member]
        for alpha, point in _scan_points(p):
            if len(found) >= count:
                break
            if any(q.evaluate(point) for q in system) or not locus.evaluate(point):
                continue
            coefficients = family.member_coefficients(alpha)
            if any(proportional(coefficients, f.coefficients) for _, f in found):
                continue
            try:
                form = validate(coefficients)
            except FormError:
                continue
            if integrability_check(form):
                found.append((alpha, form))
        return found

    if not system:
        members = collect_witnesses(3)
        return FamilyIntegrability("positive", False, members)

    try:
        sys_ideal = Ideal(pring, system)
        sol = saturate(sys_ideal, budget=budget)
        dim = hilbert_data(sol, budget).krull_dim
    except StepBudgetExceeded:
        return FamilyIntegrability("inconclusive", False, collect_witnesses(3))

    if dim <= 0:
        raise AssertionError("the base point solves the system; empty solution set is impossible")
    if dim == 1:
        base_point = Ideal(pring, [pring.variable(k) for k in range(1, p)])
        if ideal_equal(sol, base_point, budget):
            return FamilyIntegrability("finite", True, [base_member])
        members = collect_witnesses(4)
        if len(members) > 1:
            return FamilyIntegrability("finite", False, members)
        return FamilyIntegrability("inconclusive", False, members)
    members = collect_witnesses(3)
    kind = "positive" if len(members) >= 2 else "inconclusive"
    return FamilyIntegrability(kind, False, members)


# -- determination verdict -------------------------------------------------------


@dataclass
class Determination:
    kind: str  # "unique" | "non-unique" | "inconclusive"
    route: str
    witness: ProjectiveOneForm | None = None

    def __str__(self) -> str:
        if self.kind == "non-unique" and self.witness is not None:
            return f"non-unique (via {self.route}); witness: {self.witness}"
        return f"{self.kind} (via {self.route})"


def _same_span(F: tuple[Polynomial, ...], G: tuple[Polynomial, ...]) -> bool:
    """(F) = (G) for tuples of forms of one degree: both span one space of forms.

    An ideal generated in one degree is spanned there by its generators, so
    the ideals agree exactly when rank F = rank G = rank (F, G), with a
    column per monomial of either tuple.
    """
    columns = {e: k for k, e in enumerate(dict.fromkeys(e for f in F + G for e, _ in f.terms))}

    def rows(tup: tuple[Polynomial, ...]) -> list[list[Rational]]:
        out = []
        for f in tup:
            row: list[Rational] = [0] * len(columns)
            for e, c in f.terms:
                row[columns[e]] = c
            out.append(row)
        return out

    f_rows, g_rows = rows(F), rows(G)
    both = rank(f_rows + g_rows)
    return rank(f_rows) == both and rank(g_rows) == both


def is_determined_by_singular_scheme(
    form: ProjectiveOneForm, budget: int | None = None
) -> Determination:
    """Is the foliation the only one with its singular scheme?

    Applies the cheapest sufficient criterion first: splitting type with
    a <= b <= -1 forces uniqueness; a type-(1, 1-d) pull-back with d != 1 is
    unique; otherwise the integrable members of the syzygy family decide.
    Witnesses returned for non-uniqueness are validated, integrable second
    foliations, not proportional to the base, whose coefficients span the
    same forms as the base's: the singular ideals, and so the schemes, agree.
    """
    analysis = _Analysis.of(form, budget)
    report = _report_from(analysis)
    if not report.is_split:
        raise ValueError("determination analysis applies to split foliations")
    a, b = report.splitting_type
    if b <= -1:
        return Determination("unique", "splitting type a <= b <= -1")
    if b == 1 and report.degree != 1:
        return Determination("unique", "linear pull-back of degree != 1")
    outcome = integrable_members(_family_from(analysis), budget)
    for w in outcome.non_base_members(form):
        same = w.degree == form.degree and _same_span(w.coefficients, form.coefficients)
        if same and integrability_check(w):
            return Determination("non-unique", "integrable family member", w)
    if outcome.kind == "finite" and outcome.complete:
        return Determination("unique", "integrability system has only the base solution")
    return Determination("inconclusive", f"family analysis ({outcome.kind})")

