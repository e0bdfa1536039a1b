"""Decision procedures on the singular scheme of a P^3 foliation.

Saturation, the curve test (locally free tangent sheaf), the ACM test
(split tangent sheaf), the splitting type and Hartshorne-Rao dimensions,
all read from one ``_Analysis`` of the form.  The split verdict is computed
along two independent routes -- curve + saturated and curve + ACM -- whose
agreement is itself a theorem, so a disagreement signals an engine bug and
raises instead of returning.

The splitting type is read off the minimal free resolution of R/I^sat
(= R/I for a split form) that the ACM test already holds.  When the
tangent sheaf of a degree-d form is O(a) (+) O(b), the syzygies of
(F_0..F_3) form a free module with generators of entry degrees 1 (the
Euler relation), 1-a and 1-b (Hilbert-Burch), so its twists are
{d+2, d+2-a, d+2-b}.  Each 1 in (a, b) is a constant syzygy: it makes one
F_i a combination of the others, so that F_i is not a minimal generator,
and the resolution drops it from F_1 as it is built, together with its
twist d+1 in F_2.  So, with k the number of 1s in (a, b),

    F_0 = R,   F_1 = R(-d-1)^(4-k),
    F_2 = R(-d-2) (+) R(-d-2+a) (+) R(-d-2+b), less k copies of R(-d-1).

The alternating twist sum of the resolution must equal the Hilbert
numerator of R/I^sat computed from Groebner leading terms, which checks
the table along a second route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ext import ExtModule, ext_module
from .forms import ProjectiveOneForm, singular_ideal
from .groebner import Ideal, ideal_equal
from .hilbert import HilbertData, hilbert_data
from .linalg import kernel_basis, rank
from .modules import InternalInconsistency
from .resolutions import FreeResolution, free_resolution
from .rings import Exponent, PolyRing, Polynomial
from .saturation import saturate


class ConsistencyFailure(RuntimeError):
    """The Betti table of a split form does not match any splitting type."""


@dataclass(frozen=True)
class ClassificationReport:
    degree: int
    codim_ok: bool
    saturated: bool
    is_curve: bool
    is_acm: bool
    is_split: bool
    splitting_type: tuple[int, int] | None
    rao_dims: dict[int, int] | None
    betti: dict[tuple[int, int], int]
    normal_twist: int


# -- graded syzygy linear algebra ----------------------------------------------


def monomials_of_degree(ring: PolyRing, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, descending in ring order."""
    if degree < 0:
        return []
    n = ring.num_vars
    out: list[Exponent] = []

    def rec(prefix: list[int], remaining: int, pos: int) -> None:
        if pos == n - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + [k], remaining - k, pos + 1)

    rec([], degree, 0)
    out.sort(key=ring.exp_key, reverse=True)
    return out


def _syzygy_matrix(
    coefficients: tuple[Polynomial, ...], entry_degree: int
) -> tuple[list[list], list[tuple[int, Exponent]]]:
    """Coefficient matrix of (g_i) -> sum g_i F_i on entries of fixed degree."""
    ring = coefficients[0].ring
    cols: list[tuple[int, Exponent]] = []
    source_monos = monomials_of_degree(ring, entry_degree)
    for i in range(len(coefficients)):
        cols.extend((i, m) for m in source_monos)
    target_deg = entry_degree + max(f.degree() for f in coefficients)
    target = {m: r for r, m in enumerate(monomials_of_degree(ring, target_deg))}
    matrix = [[0] * len(cols) for _ in target]
    for c, (i, m) in enumerate(cols):
        prod = coefficients[i].mul_term(m, 1)
        for e, coeff in prod.terms:
            matrix[target[e]][c] += coeff
    return matrix, cols


def graded_syzygy_basis(
    coefficients: tuple[Polynomial, ...], entry_degree: int
) -> list[tuple[Polynomial, ...]]:
    """Basis of {(g_i) : sum g_i F_i = 0} with deg g_i = entry_degree."""
    if entry_degree < 0:
        return []
    ring = coefficients[0].ring
    matrix, cols = _syzygy_matrix(coefficients, entry_degree)
    if not matrix:
        return []
    basis = kernel_basis(matrix, ncols=len(cols))
    n = len(coefficients)
    out = []
    for v in basis:
        entries = [dict() for _ in range(n)]
        for (i, m), coeff in zip(cols, v):
            if coeff:
                entries[i][m] = coeff
        out.append(tuple(ring.from_dict(d) for d in entries))
    return out


def graded_syzygy_dimension(coefficients: tuple[Polynomial, ...], entry_degree: int) -> int:
    if entry_degree < 0:
        return 0
    matrix, cols = _syzygy_matrix(coefficients, entry_degree)
    return len(cols) - rank(matrix)


# -- shared analysis ------------------------------------------------------------


@dataclass
class _Analysis:
    form: ProjectiveOneForm
    ideal: Ideal
    saturation: Ideal
    saturated: bool
    sat_hilbert: HilbertData
    resolution: FreeResolution
    ext3: ExtModule

    @classmethod
    def of(cls, form: ProjectiveOneForm, budget: int | None = None) -> "_Analysis":
        if form.ring.num_vars != 4:
            raise ValueError("classification requires a form on P^3 (4 variables)")
        I = singular_ideal(form, budget)
        sat = saturate(I, budget=budget)
        saturated = I.groebner_basis(budget) == sat.groebner_basis(budget)
        res = free_resolution(sat, budget=budget)
        e3 = ext_module(sat, 3, resolution=res, budget=budget)
        return cls(form, I, sat, saturated, hilbert_data(sat, budget), res, e3)

    def curve(self) -> bool:
        return self.sat_hilbert.krull_dim == 2 and self.ext3.krull_dim <= 0

    def acm(self) -> bool:
        return self.resolution.length == 2


# -- public decision procedures --------------------------------------------------


def is_saturated(form: ProjectiveOneForm, budget: int | None = None) -> bool:
    """True when the coefficient ideal (F_0..F_n) equals its saturation.

    Works for plane forms as well as P^3 forms.
    """
    I = singular_ideal(form, budget)
    return ideal_equal(I, saturate(I, budget=budget), budget)


def is_curve(form: ProjectiveOneForm, budget: int | None = None) -> bool:
    """Locally-free test: Z is an equidimensional locally CM curve.

    Checked as dim R/I^sat = 2 together with Ext^3(R/I^sat, R) of finite
    length; the Ext condition rules out isolated and embedded points while
    allowing a nonzero finite-length Rao dual.
    """
    return _Analysis.of(form, budget).curve()


def is_acm(form: ProjectiveOneForm, budget: int | None = None) -> bool:
    """ACM test: the minimal free resolution of R/I^sat has length exactly 2."""
    a = _Analysis.of(form, budget)
    if not a.curve():
        raise ValueError("the ACM test applies to curve singular schemes only")
    return a.acm()


def is_split(form: ProjectiveOneForm, budget: int | None = None) -> bool:
    a = _Analysis.of(form, budget)
    return _split_from(a)


def _split_from(a: _Analysis) -> bool:
    curve = a.curve()
    route_a = curve and a.saturated
    route_b = curve and a.acm()
    if route_a != route_b:
        raise InternalInconsistency(
            f"split routes disagree: curve+saturated={route_a}, curve+ACM={route_b}"
        )
    return route_a


def splitting_type(form: ProjectiveOneForm, budget: int | None = None) -> tuple[int, int]:
    """The pair (a, b), a <= b, with tangent sheaf O(a) (+) O(b).

    Read off the minimal resolution of R/I: the twists of F_2 are
    {d+2, d+2-a, d+2-b} less one d+1 for each constant syzygy, that is for
    each 1 in (a, b).  Such a syzygy makes one F_i non-minimal, and the
    resolution drops it from F_1.  The table is checked against the Hilbert
    numerator of R/I^sat.
    """
    a = _Analysis.of(form, budget)
    if not _split_from(a):
        raise ValueError("splitting type is defined for split forms only")
    return _splitting_type_from(a)


def _splitting_type_from(analysis: _Analysis) -> tuple[int, int]:
    res = analysis.resolution
    d = analysis.form.degree
    if res.euler_numerator() != analysis.sat_hilbert.numerator:
        raise ConsistencyFailure(
            "the Betti table does not give the Hilbert series of R/I^sat"
        )
    if res.length != 2 or set(res.twists[1]) != {d + 1}:
        raise ConsistencyFailure(
            f"Betti table {res.betti()} is not that of a split form of degree {d}"
        )
    k = 4 - len(res.twists[1])  # constant syzygies, one for each 1 in (a, b)
    rest = list(res.twists[2])
    if d + 2 not in rest:
        raise ConsistencyFailure(f"F_2 has no Euler syzygy twist {d + 2}")
    rest.remove(d + 2)
    rest += [d + 1] * k
    if len(rest) != 2:
        raise ConsistencyFailure(
            f"Betti table {res.betti()} leaves {len(rest)} syzygy twists, not 2"
        )
    a, b = sorted(d + 2 - t for t in rest)
    return (a, b)


def rao_dimensions(form: ProjectiveOneForm, budget: int | None = None) -> dict[int, int]:
    """Graded dimensions of the Hartshorne-Rao module sum_k H^1(I_Z(k)).

    Computed as the graded dual of Ext^3(R/I^sat, R): the Rao dimension in
    degree k is the Ext^3 dimension in degree -4-k (local duality twist
    convention for four variables).
    """
    a = _Analysis.of(form, budget)
    if not a.curve():
        raise ValueError("Rao dimensions apply to curve singular schemes only")
    return _rao_from(a)


def _rao_from(analysis: _Analysis) -> dict[int, int]:
    if analysis.ext3.is_zero():
        return {}
    support = analysis.ext3.finite_support()
    return {(-4 - deg): dim for deg, dim in sorted(support.items(), reverse=True)}


def classify(form: ProjectiveOneForm, budget: int | None = None) -> ClassificationReport:
    """The consolidated report; every field computed, invariants asserted."""
    return _report_from(_Analysis.of(form, budget))


def _report_from(a: _Analysis) -> ClassificationReport:
    form = a.form
    curve = a.curve()
    acm = curve and a.acm()
    split = _split_from(a)
    stype = _splitting_type_from(a) if split else None
    rao = _rao_from(a) if curve else None
    if split:
        sa, sb = stype
        if sa + sb != 2 - form.degree or not (sa <= sb <= 1):
            raise InternalInconsistency(
                f"splitting type {stype} violates a+b=2-d or a<=b<=1 for d={form.degree}"
            )
        if acm and rao:
            raise InternalInconsistency("ACM scheme with nonzero Rao module")
    return ClassificationReport(
        degree=form.degree,
        codim_ok=True,
        saturated=a.saturated,
        is_curve=curve,
        is_acm=acm,
        is_split=split,
        splitting_type=stype,
        rao_dims=rao,
        betti=a.resolution.betti(),
        normal_twist=form.degree + 2,
    )
