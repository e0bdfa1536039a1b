"""Exact sparse multivariate polynomial arithmetic over the rationals.

A ring fixes a number of variables (named ``z0 .. z{n-1}``) and one of two
monomial orders: grevlex, with z{n-1} cheapest, or lex.  Grevlex with
another variable cheapest is a relabelling away (``map_to_ring``).
Monomials are bare exponent tuples; polynomials store their terms as a
tuple of ``(exponent, coefficient)`` pairs sorted descending in the ring
order, so the leading term is ``terms[0]`` and equal polynomials have equal
term tuples.  The zero polynomial has an empty term tuple.

Coefficients are exact rationals, ``int | Fraction``: the constructors,
sums, multiples and products store integral values as ``int``, so integral
input is computed on Python integers.  A quotient of two coefficients goes
through ``Fraction``, since ``int / int`` is a float and every verdict
downstream (membership, saturation, splitting) is exact.  An ``int`` and
the ``Fraction`` of the same value compare, hash and render alike.

Sums merge the two sorted term tuples in one pass; a product with a
single-term factor, or a power of one, needs no sort.  Every other product
expands into one unsorted coefficient dict (``add_product``) and is sorted
once; an identity that only tests a sum of products for zero, or reads its
coefficients, accumulates the whole sum into one such dict and never sorts.
The order key of an exponent is memoized by its ring (``PolyRing.exp_key``),
so the memo lives as long as the ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, le, sub
from typing import Callable, Iterable, Mapping, Sequence

Exponent = tuple[int, ...]
Rational = int | Fraction

GREVLEX = "grevlex"
LEX = "lex"


class RingMismatch(ValueError):
    """Operands live in different polynomial rings."""


def exact(c: Rational) -> Rational:
    """The exact value of c: an ``int`` when integral, else a ``Fraction``.

    A float is refused rather than expanded into its binary fraction: it
    can only come from a quotient that skipped ``Fraction``.
    """
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class _KeyMemo(dict):
    """Exponent -> order key, computed on first lookup."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable[[Exponent], tuple]):
        super().__init__()
        self.compute = compute

    def __missing__(self, e: Exponent) -> tuple:
        k = self[e] = self.compute(e)
        return k


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring Q[z0, ..., z{n-1}] ordered by grevlex (z{n-1} cheapest) or lex."""

    num_vars: int
    order: str = GREVLEX

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("ring needs at least one variable")
        if self.order not in (GREVLEX, LEX):
            raise ValueError(f"unknown monomial order {self.order!r}")

    @cached_property
    def exp_key(self) -> Callable[[Exponent], tuple]:
        """Sort key on exponent tuples; larger key = larger monomial.

        Keys are memoized per exponent for the life of the ring.
        """
        if self.order == LEX:
            return tuple  # an exponent is its own key

        def key(e: Exponent) -> tuple:
            return (sum(e), *(-x for x in reversed(e)))

        return _KeyMemo(key).__getitem__

    # -- element constructors ------------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c: Rational) -> Polynomial:
        c = exact(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.num_vars, c),))

    def variable(self, i: int) -> Polynomial:
        if not 0 <= i < self.num_vars:
            raise IndexError(f"variable index {i} out of range")
        e = [0] * self.num_vars
        e[i] = 1
        return Polynomial(self, ((tuple(e), 1),))

    def variables(self) -> list[Polynomial]:
        return [self.variable(i) for i in range(self.num_vars)]

    def from_dict(self, terms: Mapping[Exponent, Rational]) -> Polynomial:
        d = {e: exact(c) for e, c in terms.items() if c != 0}
        return Polynomial(self, self._sorted(d))

    def _sorted(self, d: Mapping[Exponent, Rational]) -> tuple:
        return tuple((e, d[e]) for e in sorted(d, key=self.exp_key, reverse=True))


# -- monomial helpers (exponent tuples) ---------------------------------------


def mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def mono_divides(a: Exponent, b: Exponent) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_div(a: Exponent, b: Exponent) -> Exponent:
    """Exponent of a/b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def mono_gcd(a: Exponent, b: Exponent) -> Exponent:
    return tuple(min(x, y) for x, y in zip(a, b))


def mono_degree(e: Exponent) -> int:
    return sum(e)


def merge_terms(a: tuple, b: tuple, key: Callable[[Exponent], tuple], negate: bool) -> tuple:
    """The term tuple of a + b (a - b when ``negate``), both nonempty and
    sorted descending by ``key``, in one pass; an integral sum is an ``int``."""
    out: list = []
    append = out.append
    na, nb = len(a), len(b)
    i = j = 0
    ea, ca = a[0]
    eb, cb = b[0]
    ka, kb = key(ea), key(eb)
    while True:
        if ka > kb:
            append(a[i])
            i += 1
            if i == na:
                break
            ea, ca = a[i]
            ka = key(ea)
        elif ka < kb:
            append((eb, -cb) if negate else b[j])
            j += 1
            if j == nb:
                break
            eb, cb = b[j]
            kb = key(eb)
        else:
            s = ca - cb if negate else ca + cb
            if s:
                append((ea, s.numerator if type(s) is Fraction and s.denominator == 1 else s))
            i += 1
            j += 1
            if i == na or j == nb:
                break
            ea, ca = a[i]
            eb, cb = b[j]
            ka, kb = key(ea), key(eb)
    if i < na:
        out.extend(a[i:])
    if j < nb:
        out.extend([(e, -c) for e, c in b[j:]] if negate else b[j:])
    return tuple(out)


def add_product(
    acc: dict[Exponent, Rational], f: Iterable, g: Iterable, c: Rational = 1
) -> dict[Exponent, Rational]:
    """acc[e1 + e2] += c*c1*c2 over the terms (e1, c1) of f and (e2, c2) of g.

    f and g are term sequences in any order, repeats allowed (a ``terms``
    tuple, a list, a dict's ``items()``).  ``acc`` stays unsorted and keeps
    the entries that cancel to zero; it is returned.
    """
    get = acc.get
    for e1, c1 in f:
        if c != 1:
            c1 *= c
        for e2, c2 in g:
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2
    return acc


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Exponent:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(e) for e, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {mono_degree(e) for e, _ in self.terms}
        return len(degs) == 1

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for e, _ in self.terms:
            used.update(i for i, x in enumerate(e) if x > 0)
        return used

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: Polynomial) -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("operands belong to different rings")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Polynomial(self.ring, merge_terms(self.terms, other.terms, self.ring.exp_key, False))

    def __sub__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        return Polynomial(self.ring, merge_terms(self.terms, other.terms, self.ring.exp_key, True))

    def __neg__(self) -> Polynomial:
        return Polynomial(self.ring, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: Polynomial | Rational) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        if len(other.terms) == 1:
            return self.mul_term(*other.terms[0])
        if len(self.terms) == 1:
            return other.mul_term(*self.terms[0])
        return self.ring.from_dict(add_product({}, self.terms, other.terms))

    def __rmul__(self, other: Rational) -> Polynomial:
        return self.scale(other)

    def scale(self, c: Rational) -> Polynomial:
        if c == 1:
            return self
        if c == 0:
            return self.ring.zero()
        out = []
        for e, k in self.terms:
            s = c * k
            out.append((e, s.numerator if type(s) is Fraction and s.denominator == 1 else s))
        return Polynomial(self.ring, tuple(out))

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power")
        if n and len(self.terms) == 1:  # (c*x^e)^n = c^n*x^(n*e)
            (e, c), = self.terms
            return Polynomial(self.ring, ((tuple([k * n for k in e]), c**n),))
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_term(self, exponents: Exponent, coeff: Rational) -> Polynomial:
        """Multiply by a single term (no sort needed: orders are multiplicative)."""
        if not self.terms:
            return self
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(self.ring, tuple([
            (tuple(map(add, e, exponents)),
             s.numerator if type(s := c * coeff) is Fraction and s.denominator == 1 else s)
            for e, c in self.terms
        ]))

    def primitive(self) -> Polynomial:
        """Scale to coprime integer coefficients with positive leading sign.

        Keeps coefficient growth in check inside Buchberger loops.
        """
        if not self.terms:
            return self
        den = lcm(*(c.denominator for _, c in self.terms))
        nums = [c.numerator * (den // c.denominator) for _, c in self.terms]
        g = gcd(*nums)
        if self.terms[0][1] < 0:
            g = -g
        return Polynomial(self.ring, tuple((e, n // g) for (e, _), n in zip(self.terms, nums)))

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, i: int) -> Polynomial:
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.ring.num_vars:
            raise IndexError(f"variable index {i} out of range")
        d: dict[Exponent, Rational] = {}
        for e, c in self.terms:
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            d[tuple(new)] = c * e[i]
        return self.ring.from_dict(d)

    def evaluate(self, point: Sequence[Rational]) -> Rational:
        """The exact value at ``point``: an ``int`` when the point and the coefficients are."""
        if len(point) != self.ring.num_vars:
            raise ValueError("point has wrong length")
        pt = [exact(x) for x in point]
        total = 0
        for e, c in self.terms:
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return total

    def substitute(self, images: Sequence[Polynomial]) -> Polynomial:
        """Substitute z_i <- images[i]; images live in any single ring.

        Terms expand into unsorted dicts (``add_product``), one for the result, sorted once."""
        if len(images) != self.ring.num_vars:
            raise ValueError("need one image per variable")
        target = images[0].ring
        zero = (0,) * target.num_vars
        powers: dict[tuple[int, int], tuple] = {}
        total: dict[Exponent, Rational] = {}
        for e, c in self.terms:
            head, last = ((zero, c),), ((zero, 1),)
            for i, k in enumerate(e):
                if k:
                    if (i, k) not in powers:
                        powers[i, k] = (images[i] ** k).terms
                    head, last = add_product({}, head, last).items(), powers[i, k]
            add_product(total, head, last)
        return target.from_dict(total)

    # -- comparison and rendering ------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.terms))

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"

    def __str__(self) -> str:
        return render(self)


def render(p: Polynomial) -> str:
    """Canonical text form: terms descending, e.g. ``3/2*z0^2*z1 - z3``."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for e, c in p.terms:
        mono = "*".join(
            f"z{i}^{k}" if k > 1 else f"z{i}" for i, k in enumerate(e) if k > 0
        )
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# -- operations on polynomials -------------------------------------------------


def homogenize(p: Polynomial, var: int, target_degree: int) -> Polynomial:
    """Pad every term with powers of z_var up to target_degree.

    Requires var absent from p and target_degree >= deg(p).
    """
    if var in p.variables_used():
        raise ValueError(f"variable z{var} occurs in the polynomial")
    if target_degree < p.degree():
        raise ValueError("target degree below the degree of the polynomial")
    d: dict[Exponent, Rational] = {}
    for e, c in p.terms:
        new = list(e)
        new[var] = target_degree - mono_degree(e)
        d[tuple(new)] = c
    return p.ring.from_dict(d)


def apply_linear_change(p: Polynomial, matrix: Sequence[Sequence[Rational]]) -> Polynomial:
    """Substitute z_i <- sum_j A[i][j] * z_j.

    Composition convention: applying A and then B equals a single application
    of the matrix product A@B, since p(Az)|_{z<-Bz} = p((AB)z).
    """
    n = p.ring.num_vars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix size does not match the ring")
    images = [
        p.ring.from_dict(
            {
                tuple(1 if j == k else 0 for k in range(n)): Fraction(matrix[i][j])
                for j in range(n)
                if Fraction(matrix[i][j]) != 0
            }
        )
        for i in range(n)
    ]
    return p.substitute(images)


def map_to_ring(p: Polynomial, target: PolyRing, var_map: Sequence[int]) -> Polynomial:
    """Re-express p in another ring, sending old variable i to var_map[i]."""
    if len(var_map) != p.ring.num_vars:
        raise ValueError("need one target index per source variable")
    d: dict[Exponent, Rational] = {}
    for e, c in p.terms:
        new = [0] * target.num_vars
        for i, k in enumerate(e):
            if k:
                new[var_map[i]] += k
        key = tuple(new)
        d[key] = d.get(key, 0) + c
    return target.from_dict(d)
