"""Checks of the program's answers, computed apart from the program with sympy.

Each check takes the form's coefficients (the input) and what the program
answered, and raises ``CheckFailed`` when the answer contradicts a
computation made here.  Nothing in this module calls into ``foliations``:
polynomials arrive as ``{exponent tuple: Fraction}`` dicts.

Ideals are compared over ``QQ``.  Over ``ZZ`` sympy normalizes a Groebner
basis differently, and equal ideals can then look unequal.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import sympy as sp

Z = sp.symbols("z0:4")
Terms = dict  # {exponent tuple: Fraction}

# z_i^k J must lie in I for some k up to this power.
MAX_POWER = 12

# Changes of coordinates z = B y, B lower unitriangular, after which the last
# variable y3 is a linear form of z with every coefficient nonzero.  They are
# tried in turn.  One with entries in {-1, 1, 2} made y3 vanish on a component
# of L112 or L22 at 4 of seeds 1-10; neither of these did, at seeds 0-12.
GENERAL_CHANGES = (
    ((1, 0, 0, 0), (2, 1, 0, 0), (-3, 5, 1, 0), (7, -11, 13, 1)),
    ((1, 0, 0, 0), (3, 1, 0, 0), (-7, 5, 1, 0), (11, -13, 17, 1)),
)


class CheckFailed(AssertionError):
    """A verdict of the program contradicts an independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def to_expr(terms: Terms) -> sp.Expr:
    expr = sp.Integer(0)
    for exps, c in terms.items():
        expr += sp.Rational(c.numerator, c.denominator) * sp.Mul(
            *(z**k for z, k in zip(Z, exps))
        )
    return expr


def _groebner(polys) -> sp.GroebnerBasis:
    return _groebner_of(tuple(p for p in polys if p != 0))


@lru_cache(maxsize=None)
def _groebner_of(polys: tuple) -> sp.GroebnerBasis:
    return sp.groebner(list(polys), *Z, order="grevlex", domain=sp.QQ)


def _leading_monomials(polys) -> list[tuple[int, ...]]:
    """Leading monomials of the grevlex Groebner basis of (polys), z3 last."""
    return [sp.Poly(g, *Z).monoms(order="grevlex")[0] for g in _groebner(polys).exprs]


def _monic_set(polys) -> set:
    return {tuple(sorted(sp.Poly(p, *Z, domain=sp.QQ).monic().terms())) for p in polys}


# -- Betti tables ---------------------------------------------------------------


def predicted_betti(a: int, b: int, d: int) -> dict[tuple[int, int], int]:
    """Betti table of R/I for a split foliation of degree d and type (a, b).

    The resolution is 0 -> R(-d-2) + R(a-d-2) + R(b-d-2) -> R(-d-1)^4 -> R,
    less one R(-d-1) on each side for each of a, b equal to 1.
    """
    table = {(0, 0): 1, (1, d + 1): 4}
    for t in (d + 2, d + 2 - a, d + 2 - b):
        table[(2, t)] = table.get((2, t), 0) + 1
    for _ in range([a, b].count(1)):
        table[(1, d + 1)] -= 1
        table[(2, d + 1)] -= 1
    return {k: v for k, v in table.items() if v}


def check_betti_of_split(betti: dict[tuple[int, int], int], stype, d: int) -> None:
    a, b = stype
    _require(a + b == 2 - d, f"type {stype} has a + b != 2 - d for d = {d}")
    _require(a <= b <= 1, f"type {stype} breaks a <= b <= 1")
    expected = predicted_betti(a, b, d)
    _require(betti == expected, f"Betti table {betti} != {expected} predicted by {stype}, d = {d}")


def admissible_types(d: int) -> list[tuple[int, int]]:
    """The types (a, b) with a + b = 2 - d and a <= b <= 1."""
    return [(2 - d - b, b) for b in range(1, -d, -1) if 2 - d - b <= b]


def check_pullback_type(split: bool, stype, plane_degree: int) -> None:
    """A linear pull-back of a plane foliation of degree k is split, of type (1-k, 1)."""
    expected = (1 - plane_degree, 1)
    _require(split, f"pull-back of a plane foliation of degree {plane_degree} reported not split")
    _require(tuple(stype) == expected, f"pull-back type {stype} != {expected}")


def check_not_split(saturated: bool, stype, coefficients: list[Terms], d: int) -> None:
    """A `not split` verdict, shown apart from the program.

    A split form has I = (F_0..F_3) saturated (by Hilbert-Burch R/I has
    projective dimension 2), and then R/I has the Betti table, so the
    Hilbert numerator, that some admissible type predicts.  So the verdict
    holds when I is not saturated (``saturated`` is checked first, by
    ``check_saturated_verdict``), or when the Hilbert numerator of R/I
    differs from the one every admissible type predicts.
    """
    _require(stype is None, f"a splitting type {stype} for a form reported not split")
    if not saturated:
        return
    numerator = _hilbert_numerator(_leading_monomials([to_expr(f) for f in coefficients]))
    for a, b in admissible_types(d):
        _require(
            numerator != _euler(predicted_betti(a, b, d)),
            f"R/I has the Hilbert numerator that type {(a, b)} predicts; 'not split' is not shown",
        )


def _hilbert_numerator(monomials: list[tuple[int, ...]]) -> dict[int, int]:
    """Numerator of the Hilbert series of R / (monomials), as {degree: coefficient}."""
    gens = _minimal(monomials)
    if not gens:
        return {0: 1}
    last, rest = gens[-1], gens[:-1]
    out = dict(_hilbert_numerator(rest))
    colon = [tuple(max(x - y, 0) for x, y in zip(m, last)) for m in rest]
    for deg, c in _hilbert_numerator(colon).items():
        key = deg + sum(last)
        out[key] = out.get(key, 0) - c
    return {k: v for k, v in out.items() if v}


def _minimal(monomials) -> list[tuple[int, ...]]:
    ms = sorted(set(monomials), key=sum)
    keep: list[tuple[int, ...]] = []
    for m in ms:
        if not any(all(x <= y for x, y in zip(k, m)) for k in keep):
            keep.append(m)
    return keep


def _euler(betti: dict[tuple[int, int], int]) -> dict[int, int]:
    """The alternating sum of a Betti table, as {degree: coefficient}."""
    out: dict[int, int] = {}
    for (i, t), n in betti.items():
        out[t] = out.get(t, 0) + (-1) ** i * n
    return {k: v for k, v in out.items() if v}


def check_betti_against_hilbert(betti: dict[tuple[int, int], int], saturation: list[Terms]) -> None:
    """The alternating sum of the Betti table is the Hilbert numerator of R/J."""
    expected = _hilbert_numerator(_leading_monomials([to_expr(p) for p in saturation]))
    _require(_euler(betti) == expected, f"Betti table {betti} does not give the Hilbert numerator {expected}")


# -- ideals ---------------------------------------------------------------------


def check_singular_ideal(coefficients: list[Terms], groebner_basis: list[Terms]) -> None:
    """The program's reduced Groebner basis of (F_0..F_3) is sympy's, over QQ."""
    mine = _groebner([to_expr(f) for f in coefficients])
    _require(
        _monic_set(mine.exprs) == _monic_set(to_expr(g) for g in groebner_basis),
        "reduced Groebner basis of the singular ideal differs from sympy's",
    )


def is_saturated(polys: list[sp.Expr]) -> bool:
    """Whether the homogeneous ideal J = (polys) is saturated, J : m = J.

    After a change z = B y from ``GENERAL_CHANGES``, the last variable y3 is
    a linear form l, and in grevlex J : y3 = J exactly when no leading
    monomial of the reduced Groebner basis is divisible by y3
    (Bayer-Stillman).  If J : l = J for any l in m, then m is not an
    associated prime, so a True answer is always right.  A saturated J has
    J : l = J unless l lies in one of its associated primes, that is, unless
    a component of the scheme lies in the plane l = 0; the next change is
    then tried.
    """
    for B in GENERAL_CHANGES:
        change = {Z[i]: sum(B[i][j] * Z[j] for j in range(4)) for i in range(4)}
        leads = _leading_monomials([sp.expand(p.xreplace(change)) for p in polys])
        if not any(m[3] for m in leads):
            return True
    return False


def check_saturation(coefficients: list[Terms], saturation: list[Terms]) -> None:
    """J is the saturation of I.

    I is contained in J, z_i^k J is contained in I for some k (so J is in
    I^sat), and J is saturated (so I^sat, the least saturated ideal holding
    I, is in J).
    """
    I = _groebner([to_expr(f) for f in coefficients])
    J = [to_expr(g) for g in saturation]
    J_gb = _groebner(J)
    _require(all(J_gb.contains(to_expr(f)) for f in coefficients), "I is not contained in its saturation")
    _require(
        any(all(I.contains(sp.expand(z**k * g)) for z in Z for g in J) for k in range(MAX_POWER + 1)),
        f"no k <= {MAX_POWER} with z_i^k J contained in I",
    )
    _require(is_saturated(J), "the saturation J is not saturated: J : m != J")


def check_saturated_verdict(saturated: bool, coefficients: list[Terms], saturation: list[Terms]) -> None:
    I = _groebner([to_expr(f) for f in coefficients])
    J = _groebner([to_expr(g) for g in saturation])
    same = _monic_set(I.exprs) == _monic_set(J.exprs)
    _require(saturated == same, f"verdict saturated={saturated}, but I == J is {same}")


# -- 1-forms --------------------------------------------------------------------


def integrability_components(G: list[sp.Expr]) -> list[sp.Expr]:
    """The coefficients of omega ^ d(omega) for omega = sum G_i dz_i."""
    out = []
    for i, j, k in combinations(range(4), 3):
        comp = (
            G[i] * (sp.diff(G[k], Z[j]) - sp.diff(G[j], Z[k]))
            + G[j] * (sp.diff(G[i], Z[k]) - sp.diff(G[k], Z[i]))
            + G[k] * (sp.diff(G[j], Z[i]) - sp.diff(G[i], Z[j]))
        )
        out.append(sp.expand(comp))
    return out


def is_integrable(G: list[sp.Expr]) -> bool:
    return all(c == 0 for c in integrability_components(G))


def _nullspace(total: sp.Expr, unknowns) -> list[sp.Matrix]:
    """Basis of the unknowns' values that make the polynomial `total` vanish."""
    equations = sp.Poly(sp.expand(total), *Z).coeffs()
    A, _ = sp.linear_eq_to_matrix(equations, unknowns)
    return A.nullspace()


def constant_syzygies(F: list[sp.Expr]) -> list[sp.Matrix]:
    """Basis of the constant vectors a with sum_j a_j F_j = 0."""
    unknowns = sp.symbols("c0:4")
    return _nullspace(sum(c * f for c, f in zip(unknowns, F)), unknowns)


def linear_syzygy_matrices(F: list[sp.Expr]) -> list[sp.Matrix]:
    """Basis of {M constant 4x4 : sum_j (sum_i M_ij z_i) F_j = 0}.

    The identity (the Euler relation) comes first, then a complement to it.
    """
    m = sp.symbols("m0:16")
    total = sum(m[4 * i + j] * Z[i] * F[j] for i in range(4) for j in range(4))
    out = [sp.eye(4)]
    for v in _nullspace(total, m):
        M = sp.Matrix(4, 4, list(v))
        candidate = out + [M]
        if sp.Matrix([list(c) for c in candidate]).rank() == len(candidate):
            out.append(M)
    return out


def family_solutions_off_base(F: list[sp.Expr]) -> list[tuple[dict, sp.Expr]]:
    """Solutions of the family's integrability system other than the base,
    each with the determinant of its matrix restricted to it.

    The family is sum_k alpha_k M_k F over a basis M_0 = 1, M_1.. of the
    linear syzygy matrices.  The system is solved in the charts alpha_i = 1,
    alpha_j = 0 for j < i, which cover projective parameter space.
    """
    mats = linear_syzygy_matrices(F)
    p = len(mats)
    alpha = sp.symbols(f"a0:{p}")
    M = sum((a * m for a, m in zip(alpha, mats)), sp.zeros(4, 4))
    G = list(M * sp.Matrix(F))
    system = set()
    for comp in integrability_components(G):
        if comp != 0:
            system.update(sp.Poly(comp, *Z).coeffs())
    det = M.det()
    out = []
    for i in range(p):
        chart = {alpha[j]: 0 for j in range(i)}
        chart[alpha[i]] = 1
        free = alpha[i + 1 :]
        eqs = [sp.expand(q.subs(chart)) for q in system]
        eqs = [q for q in eqs if q != 0]
        if any(q.is_number for q in eqs):
            continue
        sols = sp.solve(eqs, free, dict=True) if eqs else [{}]
        for sol in sols:
            if i == 0 and all(sol.get(a) == 0 for a in free):
                continue  # the base point itself
            point = {**chart, **sol}
            out.append((point, sp.expand(det.subs(point))))
    return out


def check_unique(coefficients: list[Terms], degree: int) -> None:
    """A `unique` verdict: one of the three sufficient criteria holds here."""
    F = [to_expr(f) for f in coefficients]
    consts = constant_syzygies(F)
    if not consts:
        linear = linear_syzygy_matrices(F)
        if len(linear) == 1:
            return  # type a <= b <= -1: the family is the base alone
    elif degree != 1:
        return  # a linear pull-back of degree != 1
    else:
        raise CheckFailed("no criterion here shows a degree-1 form with a constant syzygy unique")
    for point, det in family_solutions_off_base(F):
        _require(det == 0, f"integrable member at {point} is off the degenerate locus")


def check_non_unique(coefficients: list[Terms], witness: list[Terms] | None) -> None:
    """A `non-unique` witness is integrable, not proportional, with the same ideal."""
    _require(witness is not None, "non-unique verdict without a witness")
    F = [to_expr(f) for f in coefficients]
    G = [to_expr(g) for g in witness]
    _require(sp.expand(sum(z * g for z, g in zip(Z, G))) == 0, "witness breaks the Euler relation")
    _require(is_integrable(G), "witness is not integrable")
    _require(
        any(sp.expand(F[i] * G[j] - F[j] * G[i]) != 0 for i in range(4) for j in range(4)),
        "witness is proportional to the base",
    )
    _require(
        _monic_set(_groebner(G).exprs) == _monic_set(_groebner(F).exprs),
        "witness coefficients do not generate the base's ideal",
    )

