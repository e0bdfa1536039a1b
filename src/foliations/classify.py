"""Decision procedures on the singular scheme of a P^3 foliation.

``classify`` answers every question in one ``ClassificationReport``:
saturation, the curve test (locally free tangent sheaf), the ACM test
(split tangent sheaf), the splitting type and Hartshorne-Rao dimensions.
All are read from one ``_Analysis`` of the form: the saturated singular
ideal I^sat, its minimal free resolution, and Ext^3(R/I^sat, R) as the top
Ext of that resolution when it has length 3, computed where it is read:
the curve test when dim R/I^sat = 2, and the Rao module of a curve.

The singular ideal I is resolved first.  By Auslander-Buchsbaum (Eisenbud,
Thm 19.9), depth R/I >= 1, that is I = I^sat, exactly when the resolution
of R/I has length at most 3: then it is the resolution of I^sat, and only
a length 4 sends I through ``saturate``, which returns the first I : l^oo,
for l along the rational normal curve, with the Hilbert polynomial of I.
The first step of a resolution is a Groebner basis in the ring order, and
I holds it: the codim check, the Hilbert data and the first line of
``saturate`` (l = z3) read it with no basis of their own, and I^sat comes
back with integral generators, which its resolution takes as they are.
The split verdict is computed along two routes --
curve + saturated and curve + ACM -- whose agreement is a theorem, so a
disagreement raises.

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
numerator of R/in(I^sat): the two share only step 0, so this checks every
later step of the table along a second route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add

from .ext import top_ext
from .forms import ProjectiveOneForm, check_codim
from .groebner import Ideal
from .hilbert import HilbertData, ModuleHilbert, hilbert_data
from .linalg import kernel_basis
from .modules import InternalInconsistency
from .resolutions import FreeResolution, free_resolution
from .rings import Exponent, PolyRing, Polynomial, Rational
from .saturation import saturate


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
    """All exponent tuples of the given total degree, descending as tuples."""
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
    return out


def _syzygy_matrix(
    coefficients: tuple[Polynomial, ...], entry_degree: int
) -> tuple[list[list], int]:
    """Coefficient matrix of (g_i) -> sum g_i F_i on entries of fixed degree,
    with its number of columns.

    Column i*N + k holds the k-th of the N monomials of the entry degree in
    g_i, the monomials with their exponent tuples descending as tuples: in
    degree 1, z_k.  There is a row only for each monomial that occurs in a
    product z^m * F_i, in no fixed order.  The other rows of the full matrix
    are zero, and the kernel is read off the RREF, which depends neither on
    the order of the rows nor on zero rows.
    """
    source_monos = monomials_of_degree(coefficients[0].ring, entry_degree)
    ncols = len(coefficients) * len(source_monos)
    rows: dict[Exponent, list] = {}
    for c, (f, m) in enumerate((f, m) for f in coefficients for m in source_monos):
        for e, coeff in f.terms:
            e = tuple(map(add, e, m))
            (rows.get(e) or rows.setdefault(e, [0] * ncols))[c] = coeff
    return list(rows.values()), ncols


def graded_syzygy_rows(
    coefficients: tuple[Polynomial, ...], entry_degree: int
) -> list[list[Rational]]:
    """Basis of {(g_i) : sum g_i F_i = 0} with deg g_i = entry_degree, as
    kernel rows in the column layout of ``_syzygy_matrix``."""
    if entry_degree < 0:
        return []
    matrix, ncols = _syzygy_matrix(coefficients, entry_degree)
    return kernel_basis(matrix, ncols=ncols)


# -- shared analysis ------------------------------------------------------------


def saturated_resolution(I: Ideal) -> tuple[Ideal, FreeResolution]:
    """I^sat and the minimal free resolution of R/I^sat, resolving I first.

    By Auslander-Buchsbaum, pd R/I = 4 - depth R/I, and depth R/I >= 1
    exactly when the irrelevant ideal is not associated to I, that is when
    I is saturated.  So a resolution of length <= 3 returns I itself (the
    same object) with it; a longer one is dropped for that of ``saturate(I)``.
    Raises CodimTooSmall when codim Z(I) < 2, checked on the basis that
    step 0 of the resolution hands I, before any saturation is paid for.
    """
    res = free_resolution(I)
    check_codim(I)
    if res.length <= 3:
        return I, res
    sat = saturate(I)
    return sat, free_resolution(sat)


@dataclass
class _Analysis:
    form: ProjectiveOneForm
    saturation: Ideal
    saturated: bool
    sat_hilbert: HilbertData
    resolution: FreeResolution

    @classmethod
    def of(cls, form: ProjectiveOneForm) -> "_Analysis":
        if form.ring.num_vars != 4:
            raise ValueError("classification requires a form on P^3 (4 variables)")
        I = Ideal(form.ring, form.coefficients)
        # resolve I first: step 0 hands I the basis that the codim check and
        # saturate read, and a length <= 3 means I is saturated
        sat, res = saturated_resolution(I)
        # depth R/I^sat >= 1, so the resolution has length at most 3
        # (Auslander-Buchsbaum) and Ext^3 is zero or the top Ext
        if res.length > 3:
            raise InternalInconsistency(
                f"the resolution of a saturated ideal has length {res.length} > 3"
            )
        return cls(form, sat, sat is I, hilbert_data(sat), res)

    @cached_property
    def ext3(self) -> ModuleHilbert | None:
        """Ext^3(R/I^sat, R), None when it vanishes; computed on first read."""
        return top_ext(self.resolution) if self.resolution.length == 3 else None

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
        raise InternalInconsistency(
            "the Betti table does not give the Hilbert series of R/I^sat"
        )
    if res.length != 2 or set(res.twists[1]) != {d + 1}:
        raise InternalInconsistency(
            f"Betti table {res.betti()} is not that of a split form of degree {d}"
        )
    k = 4 - len(res.twists[1])  # constant syzygies, one for each 1 in (a, b)
    rest = list(res.twists[2])
    if d + 2 not in rest:
        raise InternalInconsistency(f"F_2 has no Euler syzygy twist {d + 2}")
    rest.remove(d + 2)
    rest += [d + 1] * k
    if len(rest) != 2:
        raise InternalInconsistency(
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


def classify(form: ProjectiveOneForm) -> ClassificationReport:
    """The consolidated report; every field computed, invariants asserted."""
    return _report_from(_Analysis.of(form))


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
    )
