"""The .form input language: a ring declaration and a 1-form expression.

    # optional comments anywhere
    ring z0 z1 z2 z3
    name l1111              # optional metadata
    expected-degree 2       # optional; checked against the validated form,
                            # after any common monomial factor is stripped
    form (z1*z2*z3) dz0 + (z0*z2*z3) dz1 + (z0*z1*z3) dz2 + (-3*z0*z1*z2) dz3

Polynomial expressions use integers, rationals p/q, the ring variables,
``+ - * ^`` and parentheses; a missing coefficient before ``dz<i>`` means 1.
A unary minus negates the whole power: ``-z0^2*z1`` is ``-(z0^2)*z1``.
The parser is whitespace-insensitive and reports line/column positions.
Printing produces the canonical layout above; print-then-parse is the
identity on forms and parse-then-print is the identity on canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .forms import FormError, ProjectiveOneForm, validate
from .rings import PolyRing, Polynomial


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class FormFile:
    form: ProjectiveOneForm
    name: str | None = None
    expected_degree: int | None = None


_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9-]*)|(?P<sym>[-+*^()])"
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # number | word | sym | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Tok]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Tok(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Tok("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def next(self) -> _Tok:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.column)

    def expect_word(self, word: str) -> None:
        t = self.next()
        if t.kind != "word" or t.text != word:
            raise ParseError(f"expected {word!r}, found {t.text!r}", t.line, t.column)

    # -- grammar -----------------------------------------------------------

    def parse_file(self) -> FormFile:
        self.expect_word("ring")
        names = []
        while self.peek().kind == "word" and re.fullmatch(r"z\d+", self.peek().text):
            names.append(self.next().text)
        if len(names) < 2:
            raise self.fail("ring declaration needs at least two variables")
        if names != [f"z{i}" for i in range(len(names))]:
            raise self.fail(f"variables must be named z0..z{len(names) - 1} in order")
        ring = PolyRing(len(names))

        name = None
        expected = None
        while self.peek().kind == "word" and self.peek().text in ("name", "expected-degree"):
            key = self.next().text
            if key == "name":
                t = self.next()
                if t.kind not in ("word", "number"):
                    raise ParseError("expected a name", t.line, t.column)
                name = t.text
            else:
                t = self.next()
                if t.kind != "number" or "/" in t.text:
                    raise ParseError("expected an integer degree", t.line, t.column)
                expected = int(t.text)

        self.expect_word("form")
        coeffs = [ring.zero() for _ in range(ring.num_vars)]
        sign = 1
        first = True
        while True:
            t = self.peek()
            if not first:
                if t.kind == "end":
                    break
                if t.kind == "sym" and t.text in "+-":
                    self.next()
                    sign = 1 if t.text == "+" else -1
                else:
                    raise self.fail(f"expected '+', '-' or end of form, found {t.text!r}")
            poly, dz = self.parse_term(ring)
            coeffs[dz] = coeffs[dz] + poly.scale(sign)
            sign = 1
            first = False
        t = self.next()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.column)

        form = validate(coeffs)
        if expected is not None and form.degree != expected:
            raise FormError(
                f"expected degree {expected} but the validated form has degree {form.degree}"
            )
        return FormFile(form, name, expected)

    def parse_term(self, ring: PolyRing) -> tuple[Polynomial, int]:
        t = self.peek()
        if t.kind == "word" and re.fullmatch(r"dz\d+", t.text):
            poly = ring.one()
        else:
            poly = self.parse_expr(ring)
        t = self.next()
        if t.kind != "word" or not re.fullmatch(r"dz\d+", t.text):
            raise ParseError(f"expected dz<i>, found {t.text!r}", t.line, t.column)
        index = int(t.text[2:])
        if index >= ring.num_vars:
            raise ParseError(f"differential {t.text} outside the ring", t.line, t.column)
        return poly, index

    def parse_expr(self, ring: PolyRing) -> Polynomial:
        acc = self.parse_product(ring)
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in "+-":
                self.next()
                rhs = self.parse_product(ring)
                acc = acc + rhs if t.text == "+" else acc - rhs
            else:
                return acc

    def parse_product(self, ring: PolyRing) -> Polynomial:
        acc = self.parse_power(ring)
        while self.peek().kind == "sym" and self.peek().text == "*":
            self.next()
            acc = acc * self.parse_power(ring)
        return acc

    def parse_power(self, ring: PolyRing) -> Polynomial:
        if self.peek().kind == "sym" and self.peek().text == "-":
            self.next()
            return -self.parse_power(ring)
        base = self.parse_atom(ring)
        if self.peek().kind == "sym" and self.peek().text == "^":
            self.next()
            t = self.next()
            if t.kind != "number" or "/" in t.text:
                raise ParseError("exponent must be a nonnegative integer", t.line, t.column)
            return base ** int(t.text)
        return base

    def parse_atom(self, ring: PolyRing) -> Polynomial:
        t = self.next()
        if t.kind == "number":
            return ring.constant(Fraction(t.text))
        if t.kind == "sym" and t.text == "(":
            inner = self.parse_expr(ring)
            closing = self.next()
            if closing.kind != "sym" or closing.text != ")":
                raise ParseError("expected ')'", closing.line, closing.column)
            return inner
        if t.kind == "word" and re.fullmatch(r"z\d+", t.text):
            index = int(t.text[1:])
            if index >= ring.num_vars:
                raise ParseError(f"variable {t.text} outside the ring", t.line, t.column)
            return ring.variable(index)
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.column)


def parse_form_file(text: str) -> FormFile:
    """Parse and validate; raises ParseError or a validation FormError."""
    return _Parser(text).parse_file()


def print_form_file(
    form: ProjectiveOneForm, name: str | None = None, expected_degree: int | None = None
) -> str:
    """Canonical text for a validated form (round-trips through the parser)."""
    lines = ["ring " + " ".join(f"z{i}" for i in range(form.ring.num_vars))]
    if name is not None:
        lines.append(f"name {name}")
    if expected_degree is not None:
        lines.append(f"expected-degree {expected_degree}")
    lines.append(f"form {form}")
    return "\n".join(lines) + "\n"
