"""Decision procedures on the singular scheme of a P^3 foliation.

``classify`` answers every question in one ``ClassificationReport``:
saturation, the curve test (locally free tangent sheaf), the ACM test
(split tangent sheaf), the splitting type and Hartshorne-Rao dimensions.
All are read from one ``_Analysis`` of the form: the saturated singular
ideal I^sat, its minimal free resolution, and Ext^3(R/I^sat, R) as the top
Ext of that resolution when it has length 3.

The singular ideal I is resolved first.  By Auslander-Buchsbaum (Eisenbud,
Thm 19.9), depth R/I >= 1, that is I = I^sat, exactly when the resolution
of R/I has length at most 3.  So a length <= 3 both says I is saturated and
is the resolution of I^sat; only a length-4 resolution sends I through
``saturate``, and I^sat is resolved in its place.  The split verdict is
computed along two routes -- curve + saturated and curve + ACM -- whose
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

from .ext import top_ext
from .forms import ProjectiveOneForm, singular_ideal
from .groebner import Ideal
from .hilbert import HilbertData, ModuleHilbert, hilbert_data
from .linalg import kernel_basis, rank
from .modules import InternalInconsistency
from .resolutions import FreeResolution, free_resolution
from .rings import Exponent, PolyRing, Polynomial
from .saturation import saturate


class ConsistencyFailure(RuntimeError):
    """The Betti table of a split form does not match any splitting type."""


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    """The verdicts on one form.

    The Rao dimensions and the Betti table are held as flat tuples, so a
    report is hashable and cannot change; ``rao_dims`` and ``betti`` read
    them back as fresh dicts, in the order they were computed.
    """

    degree: int
    codim_ok: bool
    saturated: bool
    is_curve: bool
    is_acm: bool
    is_split: bool
    splitting_type: tuple[int, int] | None
    rao_flat: tuple[int, ...] | None  # degree, dimension, degree, dimension, ...
    betti_flat: tuple[int, ...]  # i, twist, count, i, twist, count, ...
    normal_twist: int

    @property
    def rao_dims(self) -> dict[int, int] | None:
        if self.rao_flat is None:
            return None
        it = iter(self.rao_flat)
        return dict(zip(it, it))

    @property
    def betti(self) -> dict[tuple[int, int], int]:
        it = iter(self.betti_flat)
        return {(i, t): n for i, t, n in zip(it, it, it)}


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


def saturated_resolution(I: Ideal, budget: int | None = None) -> tuple[Ideal, FreeResolution]:
    """I^sat and the minimal free resolution of R/I^sat, resolving I first.

    By Auslander-Buchsbaum, pd R/I = 4 - depth R/I, and depth R/I >= 1
    exactly when the irrelevant ideal is not associated to I, that is when
    I is saturated.  So a resolution of length <= 3 returns I itself (the
    same object) with it; a longer one is dropped for that of ``saturate(I)``.
    """
    res = free_resolution(I, budget=budget)
    if res.length <= 3:
        return I, res
    sat = saturate(I, budget=budget)
    return sat, free_resolution(sat, budget=budget)


@dataclass
class _Analysis:
    form: ProjectiveOneForm
    ideal: Ideal
    saturation: Ideal
    saturated: bool
    sat_hilbert: HilbertData
    resolution: FreeResolution
    ext3: ModuleHilbert | None  # Ext^3(R/I^sat, R); None when it vanishes

    @classmethod
    def of(cls, form: ProjectiveOneForm, budget: int | None = None) -> "_Analysis":
        if form.ring.num_vars != 4:
            raise ValueError("classification requires a form on P^3 (4 variables)")
        I = singular_ideal(form, budget)
        # resolve I first: a length <= 3 means I is saturated (see
        # saturated_resolution), and only a length 4 costs a saturation
        sat, res = saturated_resolution(I, budget)
        # depth R/I^sat >= 1, so the resolution has length at most 3
        # (Auslander-Buchsbaum) and Ext^3 is zero or the top Ext
        if res.length > 3:
            raise InternalInconsistency(
                f"the resolution of a saturated ideal has length {res.length} > 3"
            )
        e3 = top_ext(res, budget) if res.length == 3 else None
        return cls(form, I, sat, sat is I, hilbert_data(sat, budget), res, e3)

    def curve(self) -> bool:
        """Locally free test: Z is an equidimensional locally CM curve.

        dim R/I^sat = 2, and Ext^3(R/I^sat, R) has finite length: a
        point of Z, isolated or embedded, would put a positive-dimensional
        piece into the support of Ext^3, while a nonzero finite-length
        Ext^3 is the dual of the Rao module of a curve that is not ACM.
        """
        return self.sat_hilbert.krull_dim == 2 and (
            self.ext3 is None or self.ext3.krull_dim <= 0
        )

    def acm(self) -> bool:
        return self.resolution.length == 2


# -- reading the report off the analysis ------------------------------------------


def _split_from(a: _Analysis) -> bool:
    curve = a.curve()
    route_a = curve and a.saturated
    route_b = curve and a.acm()
    if route_a != route_b:
        raise InternalInconsistency(
            f"split routes disagree: curve+saturated={route_a}, curve+ACM={route_b}"
        )
    return route_a


def _splitting_type_from(analysis: _Analysis) -> tuple[int, int]:
    """The pair (a, b), a <= b, with tangent sheaf O(a) (+) O(b).

    Read off the Betti table, as the module docstring explains, once the
    table is checked against the Hilbert numerator of R/I^sat.
    """
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


def _rao_from(analysis: _Analysis) -> dict[int, int]:
    """Graded dimensions of the Hartshorne-Rao module sum_k H^1(I_Z(k)).

    The Rao module is the graded dual of Ext^3(R/I^sat, R) (Rao, "Liaison
    among curves in P^3", 1979), with the local duality twist -4 of four
    variables: its dimension in degree k is that of Ext^3 in degree -4-k.
    """
    if analysis.ext3 is None:
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
        rao_flat=None if rao is None else tuple(x for item in rao.items() for x in item),
        betti_flat=tuple(x for (i, t), n in a.resolution.betti().items() for x in (i, t, n)),
        normal_twist=form.degree + 2,
    )
