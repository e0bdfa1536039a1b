"""Determination of a split foliation by its singular scheme.

Linear syzygies of the coefficient tuple correspond to 4x4 matrices acting
on the coefficients (the Euler relation is the identity matrix); invertible
members of the matrix pencil produce every distribution with the same
singular scheme.  Integrable members are cut out by a quadratic system in
the pencil parameters, which is solved by Groebner methods over Q; verdicts
are backed by verified witnesses, never by a dimension claim alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .classify import _Analysis, _report_from, _split_from, graded_syzygy_basis, saturated_resolution
from .forms import (
    FormError,
    ProjectiveOneForm,
    exterior_derivative,
    integrability_check,
    validate,
    wedge_1_2,
)
from .groebner import Ideal, ideal_equal
from .hilbert import hilbert_data
from .linalg import echelon
from .modules import StepBudgetExceeded
from .rings import PolyRing, Polynomial, Rational, exact
from .saturation import saturate


class SingularMatrix(ValueError):
    pass


@dataclass(frozen=True)
class LinearSyzygy:
    """Linear forms (l_0..l_3) with sum l_i F_i = 0."""

    entries: tuple[Polynomial, ...]

    def to_matrix(self) -> "SyzygyMatrix":
        ring = self.entries[0].ring
        n = ring.num_vars
        m: list[list[Rational]] = [[0] * n for _ in range(n)]
        for j, ell in enumerate(self.entries):
            for e, c in ell.terms:
                i = next(k for k, x in enumerate(e) if x)
                m[i][j] = c
        return SyzygyMatrix(tuple(tuple(row) for row in m))


@dataclass(frozen=True)
class SyzygyMatrix:
    """The matrix M with (z_0..z_3) . M recovering the syzygy entries."""

    entries: tuple[tuple[Rational, ...], ...]

    def to_syzygy(self, ring: PolyRing) -> LinearSyzygy:
        n = ring.num_vars
        cols = []
        for j in range(n):
            acc = ring.zero()
            for i in range(n):
                if self.entries[i][j]:
                    acc = acc + ring.variable(i).scale(self.entries[i][j])
            cols.append(acc)
        return LinearSyzygy(tuple(cols))


def _columns(matrix: SyzygyMatrix) -> list[Rational]:
    """The entries of the matrix column by column: the layout of the echelon."""
    return [x for col in zip(*matrix.entries) for x in col]


def linear_syzygy_space(form: ProjectiveOneForm) -> list[LinearSyzygy]:
    """Basis of the linear syzygies, Euler first, remainder in echelon form."""
    ring = form.ring
    n = ring.num_vars
    euler = LinearSyzygy(tuple(ring.variable(j) for j in range(n)))
    raw = [LinearSyzygy(s) for s in graded_syzygy_basis(form.coefficients, 1)]
    out = []
    for row in echelon([_columns(s.to_matrix()) for s in [euler] + raw]):
        pivot = next(x for x in row if x)
        cols = [[exact(Fraction(x, pivot)) for x in row[j * n : (j + 1) * n]] for j in range(n)]
        out.append(SyzygyMatrix(tuple(zip(*cols))).to_syzygy(ring))
    return out


def constant_syzygy_space(form: ProjectiveOneForm) -> list[tuple[Fraction, ...]]:
    """Basis of {constants (a_0..a_3) : sum a_i F_i = 0}; nonzero iff b = 1."""
    raw = graded_syzygy_basis(form.coefficients, 0)
    out = []
    for s in raw:
        out.append(tuple(p.coefficient((0,) * form.ring.num_vars) for p in s))
    return out


def _apply_matrix(F: tuple[Polynomial, ...], m) -> list[Polynomial]:
    ring = F[0].ring
    out = []
    for i in range(len(F)):
        acc = ring.zero()
        for j, f in enumerate(F):
            if m[i][j]:
                acc = acc + f.scale(m[i][j])
        out.append(acc)
    return out


@dataclass
class DistributionFamily:
    """All distributions sharing the singular scheme of a split foliation."""

    base: ProjectiveOneForm
    syzygy_basis: list[LinearSyzygy]
    matrices: list[SyzygyMatrix]
    parameter_ring: PolyRing
    member_tuples: list[tuple[Polynomial, ...]]
    degenerate_locus: Polynomial

    @property
    def parameter_dim(self) -> int:
        return len(self.syzygy_basis)

    def _weights(self, alpha) -> list[Rational]:
        """The exact coordinates of a parameter point, one per syzygy."""
        if len(alpha) != self.parameter_dim:
            raise ValueError(
                f"parameter {alpha} has {len(alpha)} coordinates, not {self.parameter_dim}"
            )
        return [exact(Fraction(a)) for a in alpha]

    def member_coefficients(self, alpha) -> tuple[Polynomial, ...]:
        ring = self.base.ring
        acc = [ring.zero()] * ring.num_vars
        for c, tup in zip(self._weights(alpha), self.member_tuples):
            if c:
                acc = [a + f.scale(c) for a, f in zip(acc, tup)]
        return tuple(acc)

    def member_form(self, alpha) -> ProjectiveOneForm:
        # the degenerate locus is the determinant of the pencil
        if self.degenerate_locus.evaluate(self._weights(alpha)) == 0:
            raise SingularMatrix(f"parameter {alpha} lies in the degenerate locus")
        return validate(self.member_coefficients(alpha))


def _poly_det(entries: list[list[Polynomial]], ring: PolyRing) -> Polynomial:
    n = len(entries)
    if n == 1:
        return entries[0][0]
    acc = ring.zero()
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        term = entries[0][j] * _poly_det(minor, ring)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def distribution_family(form: ProjectiveOneForm, budget: int | None = None) -> DistributionFamily:
    """The syzygy-parameterized family; requires a split base foliation."""
    return _family_from(_Analysis.of(form, budget))


def _family_from(analysis: _Analysis) -> DistributionFamily:
    if not _split_from(analysis):
        raise ValueError("the family construction requires a split foliation")
    form = analysis.form
    syzygies = linear_syzygy_space(form)
    matrices = [s.to_matrix() for s in syzygies]
    p = len(syzygies)
    param_ring = PolyRing(p) if p > 1 else PolyRing(1)
    n = form.ring.num_vars
    pencil = [
        [
            param_ring.from_dict(
                {
                    tuple(1 if t == k else 0 for t in range(param_ring.num_vars)): m.entries[i][j]
                    for k, m in enumerate(matrices)
                    if m.entries[i][j]
                }
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    locus = _poly_det(pencil, param_ring)
    members = [tuple(_apply_matrix(form.coefficients, m.entries)) for m in matrices]
    return DistributionFamily(form, syzygies, matrices, param_ring, members, locus)


# -- the quadratic integrability system ----------------------------------------


def integrability_system(family: DistributionFamily) -> list[Polynomial]:
    """Quadrics in the parameters whose zero locus is the integrable members.

    Expands (sum a_k w_k) ^ d(sum a_j w_j) and collects, per 3-form component
    and z-monomial, the quadratic coefficient polynomial in the parameters.
    When the base is integrable the pure base-parameter block must vanish,
    which is asserted.
    """
    ring = family.base.ring
    pring = family.parameter_ring
    p = family.parameter_dim
    tuples = family.member_tuples
    derivs = [
        exterior_derivative(ProjectiveOneForm(ring, t, family.base.degree))
        for t in tuples
    ]
    collected: dict[tuple, dict[tuple[int, int], Fraction]] = {}
    for k in range(p):
        for j in range(k, p):
            three = wedge_1_2(tuples[k], derivs[j])
            if j > k:
                other = wedge_1_2(tuples[j], derivs[k])
                merged = {}
                for key in set(three.entries) | set(other.entries):
                    s = three.entries.get(key, ring.zero()) + other.entries.get(
                        key, ring.zero()
                    )
                    if not s.is_zero():
                        merged[key] = s
                entries = merged
            else:
                entries = three.entries
            for triple, poly in entries.items():
                for e, c in poly.terms:
                    collected.setdefault((triple, e), {})[(k, j)] = c
    base_integrable = integrability_check(family.base)
    system: list[Polynomial] = []
    seen = set()
    for _, quad in collected.items():
        if base_integrable and quad.get((0, 0)):
            raise AssertionError("integrable base contributed a pure base-parameter term")
        d = {}
        for (k, j), c in quad.items():
            e = [0] * pring.num_vars
            e[k] += 1
            e[j] += 1
            d[tuple(e)] = c
        q = pring.from_dict(d)
        if q.is_zero():
            continue
        q = q.primitive()
        if q.terms not in seen:
            seen.add(q.terms)
            system.append(q)
    return system


@dataclass
class FamilyIntegrability:
    """Outcome of solving the integrability system over the family."""

    kind: str  # "finite" | "positive" | "inconclusive"
    complete: bool
    solution_cone_dim: int | None
    members: list[tuple[tuple[Fraction, ...], ProjectiveOneForm]]

    def non_base_members(self, base: ProjectiveOneForm) -> list[ProjectiveOneForm]:
        return [f for _, f in self.members if not f.is_proportional_to(base)]


def _scan_candidates(p: int) -> list[tuple[Fraction, ...]]:
    values = [Fraction(x) for x in (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(1, 3), -3)]
    candidates: list[tuple[Fraction, ...]] = []
    for k in range(1, p):
        unit = tuple(Fraction(int(i == k)) for i in range(p))
        candidates.append(unit)
        for v in values:
            candidates.append(tuple(Fraction(int(i == 0)) + (v if i == k else 0) for i in range(p)))
    if p <= 3:
        small = [Fraction(x) for x in (-2, -1, 0, 1, 2)]
        for combo in product(small, repeat=p):
            if any(combo):
                candidates.append(tuple(combo))
    return candidates


def integrable_members(
    family: DistributionFamily, budget: int | None = None
) -> FamilyIntegrability:
    """Classify the integrable members of the family.

    The quadratic system is solved by Groebner bases in the parameter ring;
    the dimension verdict comes from Hilbert data of the saturated solution
    ideal, and every reported member is re-verified by the integrability
    check and matrix invertibility.
    """
    p = family.parameter_dim
    base_alpha = tuple(Fraction(int(i == 0)) for i in range(p))
    base_member = (base_alpha, family.base)
    if p == 1:
        return FamilyIntegrability("finite", True, 1, [base_member])
    system = integrability_system(family)
    pring = family.parameter_ring

    def verified(alpha) -> ProjectiveOneForm | None:
        try:
            form = family.member_form(alpha)
        except (SingularMatrix, FormError):
            return None
        return form if integrability_check(form) else None

    def collect_witnesses(count: int) -> list[tuple[tuple[Fraction, ...], ProjectiveOneForm]]:
        found = [base_member]
        for alpha in _scan_candidates(p):
            if len(found) >= count:
                break
            if all(q.evaluate(alpha) == 0 for q in system):
                form = verified(alpha)
                if form is not None and not any(
                    form.is_proportional_to(f) for _, f in found
                ):
                    found.append((alpha, form))
        return found

    if not system:
        members = collect_witnesses(3)
        return FamilyIntegrability("positive", False, p, members)

    try:
        sys_ideal = Ideal(pring, system)
        sol = saturate(sys_ideal, budget=budget)
        dim = hilbert_data(sol, budget).krull_dim
    except StepBudgetExceeded:
        return FamilyIntegrability("inconclusive", False, None, collect_witnesses(3))

    if dim <= 0:
        raise AssertionError("the base point solves the system; empty solution set is impossible")
    if dim == 1:
        base_point = Ideal(pring, [pring.variable(k) for k in range(1, p)])
        if ideal_equal(sol, base_point, budget):
            return FamilyIntegrability("finite", True, 1, [base_member])
        members = collect_witnesses(4)
        if len(members) > 1:
            return FamilyIntegrability("finite", False, 1, members)
        return FamilyIntegrability("inconclusive", False, 1, members)
    members = collect_witnesses(3)
    kind = "positive" if len(members) >= 2 else "inconclusive"
    return FamilyIntegrability(kind, False, dim, members)


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


def is_determined_by_singular_scheme(
    form: ProjectiveOneForm, budget: int | None = None
) -> Determination:
    """Is the foliation the only one with its singular scheme?

    Applies the cheapest sufficient criterion first: splitting type with
    a <= b <= -1 forces uniqueness; a type-(1, 1-d) pull-back with d != 1 is
    unique; otherwise the integrable members of the syzygy family decide.
    Witnesses returned for non-uniqueness are validated second foliations
    with the same saturated singular ideal, not proportional to the base.
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
    witnesses = outcome.non_base_members(form)
    for w in witnesses:
        w_sat, _ = saturated_resolution(Ideal(w.ring, w.coefficients), budget)
        same = ideal_equal(w_sat, analysis.saturation, budget)
        if same and integrability_check(w):
            return Determination("non-unique", "integrable family member", w)
    if outcome.kind == "finite" and outcome.complete:
        return Determination("unique", "integrability system has only the base solution")
    return Determination("inconclusive", f"family analysis ({outcome.kind})")

