"""The .form input language: a ring declaration and a 1-form expression.

    # optional comments anywhere
    ring z0 z1 z2 z3
    name l1111              # optional metadata
    expected-degree 2       # optional; checked against the validated form,
                            # after any common monomial factor is stripped
    form (z1*z2*z3) dz0 + (z0*z2*z3) dz1 + (z0*z1*z3) dz2 + (-3*z0*z1*z2) dz3

Polynomial expressions use integers, rationals p/q (q != 0), the ring
variables, ``+ - * ^`` and parentheses; a missing coefficient before
``dz<i>`` means 1.  A unary minus negates the whole power: ``-z0^2*z1`` is
``-(z0^2)*z1``, and ``z0-z1`` is a difference; ``--z0`` is ``z0``.
Parentheses nest at most ``MAX_NESTING`` deep.  A word is letters and
digits; in the header, words joined by ``-`` with no space make one key or
name (``expected-degree``, ``L1111-alt``).
The parser is whitespace-insensitive. Tokens keep only their offset; the
line/column position an error reports is counted when it is raised.
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
        self.message, self.line, self.column = message, line, column


@dataclass(frozen=True)
class FormFile:
    form: ProjectiveOneForm
    name: str | None = None
    expected_degree: int | None = None


# A token after any whitespace and comments; ``bad`` is a character that starts none.
_TOKEN = re.compile(
    r"(?:\s+|#.*)*(?:(?P<number>\d+(?:/\d+)?)|(?P<word>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<sym>[-+*^()])|(?P<end>\Z)|(?P<bad>.))"
)
_VARIABLE = re.compile(r"z\d+").fullmatch
MAX_NESTING = 100  # parentheses nest at most this deep, well inside the recursion limit
_DIFFERENTIAL = re.compile(r"dz\d+").fullmatch


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at the line and column of ``text[offset]``."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens, kind number | word | sym | end."""
    tokens = []
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        token = (kind, m.group(kind), m.start(kind))
        if kind == "bad":
            raise _error(text, token[2], f"unexpected character {token[1]!r}")
        tokens.append(token)
        if kind == "end":
            return tokens
        pos = m.end()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the next token

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, token: tuple[str, str, int] | None = None) -> ParseError:
        """A ParseError at ``token``, by default the next one."""
        return _error(self.text, (token or self.peek())[2], message)

    def hyphenated(self) -> tuple[str, int]:
        """The next word or number with the ``-`` parts glued to it, and its token count."""
        tokens, i = self.tokens, self.pos
        text = tokens[i][1]
        while (
            tokens[i][0] in ("word", "number")
            and tokens[i + 1][1] == "-"
            and tokens[i + 1][2] == tokens[i][2] + len(tokens[i][1])
            and tokens[i + 2][0] in ("word", "number")
            and tokens[i + 2][2] == tokens[i + 1][2] + 1
        ):
            text += "-" + tokens[i + 2][1]
            i += 2
        return text, i + 1 - self.pos

    def expect_word(self, word: str) -> None:
        t = self.next()
        if t[0] != "word" or t[1] != word:
            raise self.fail(f"expected {word!r}, found {t[1]!r}", t)

    # -- grammar -----------------------------------------------------------
    # No other token shares the text of a symbol or of the end (""), so it is told by that.

    def parse_file(self) -> FormFile:
        self.expect_word("ring")
        names = []
        while self.peek()[0] == "word" and _VARIABLE(self.peek()[1]):
            names.append(self.next()[1])
        if len(names) < 2:
            raise self.fail("ring declaration needs at least two variables")
        if names != [f"z{i}" for i in range(len(names))]:
            raise self.fail(f"variables must be named z0..z{len(names) - 1} in order")
        ring = PolyRing(len(names))

        name = None
        expected = None
        while True:
            key, count = self.hyphenated()
            if self.peek()[0] != "word" or key not in ("name", "expected-degree"):
                break
            self.pos += count
            if key == "name":
                if self.peek()[0] not in ("word", "number"):
                    raise self.fail("expected a name")
                name, count = self.hyphenated()
                self.pos += count
            else:
                t = self.next()
                if t[0] != "number" or "/" in t[1]:
                    raise self.fail("expected an integer degree", t)
                expected = int(t[1])

        self.expect_word("form")
        coeffs = [ring.zero() for _ in range(ring.num_vars)]
        sign = 1
        first = True
        while True:
            text = self.peek()[1]
            if not first:
                if text == "":
                    break
                if text in ("+", "-"):
                    self.next()
                    sign = 1 if text == "+" else -1
                else:
                    raise self.fail(f"expected '+', '-' or end of form, found {text!r}")
            poly, dz = self.parse_term(ring)
            coeffs[dz] = coeffs[dz] + poly.scale(sign)
            sign = 1
            first = False

        form = validate(coeffs)
        if expected is not None and form.degree != expected:
            raise FormError(
                f"expected degree {expected} but the validated form has degree {form.degree}"
            )
        return FormFile(form, name, expected)

    def parse_term(self, ring: PolyRing) -> tuple[Polynomial, int]:
        t = self.peek()
        if t[0] == "word" and _DIFFERENTIAL(t[1]):
            poly = ring.one()
        else:
            poly = self.parse_expr(ring)
        t = self.next()
        if t[0] != "word" or not _DIFFERENTIAL(t[1]):
            raise self.fail(f"expected dz<i>, found {t[1]!r}", t)
        index = int(t[1][2:])
        if index >= ring.num_vars:
            raise self.fail(f"differential {t[1]} outside the ring", t)
        return poly, index

    def parse_expr(self, ring: PolyRing) -> Polynomial:
        acc = self.parse_product(ring)
        while True:
            text = self.peek()[1]
            if text not in ("+", "-"):
                return acc
            self.next()
            rhs = self.parse_product(ring)
            acc = acc + rhs if text == "+" else acc - rhs

    def parse_product(self, ring: PolyRing) -> Polynomial:
        acc = self.parse_power(ring)
        while self.peek()[1] == "*":
            self.next()
            acc = acc * self.parse_power(ring)
        return acc

    def parse_power(self, ring: PolyRing) -> Polynomial:
        negate = False
        while self.peek()[1] == "-":  # a run of signs, read in a loop: an even one cancels
            self.next()
            negate = not negate
        base = self.parse_atom(ring)
        if self.peek()[1] == "^":
            self.next()
            t = self.next()
            if t[0] != "number" or "/" in t[1]:
                raise self.fail("exponent must be a nonnegative integer", t)
            base = base ** int(t[1])
        return -base if negate else base

    def parse_atom(self, ring: PolyRing) -> Polynomial:
        kind, text, _ = t = self.next()
        if kind == "number":
            num, _, den = text.partition("/")
            if den and not int(den):
                raise self.fail(f"zero denominator in {text!r}", t)
            return ring.constant(Fraction(int(num), int(den)) if den else int(num))
        if text == "(":
            if self.depth == MAX_NESTING:
                raise self.fail(f"parentheses nested deeper than {MAX_NESTING}", t)
            self.depth += 1
            inner = self.parse_expr(ring)
            self.depth -= 1
            closing = self.next()
            if closing[1] != ")":
                raise self.fail("expected ')'", closing)
            return inner
        if kind == "word" and _VARIABLE(text):
            index = int(text[1:])
            if index >= ring.num_vars:
                raise self.fail(f"variable {text} outside the ring", t)
            return ring.variable(index)
        raise self.fail(f"unexpected token {text!r}", t)


def parse_form_file(text: str) -> FormFile:
    """Parse and validate; raises ParseError or a validation FormError."""
    return _Parser(text).parse_file()


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """One polynomial expression in ``ring``; raises ParseError."""
    parser = _Parser(text)
    poly = parser.parse_expr(ring)
    if parser.peek()[1] != "":
        raise parser.fail(f"trailing input {parser.peek()[1]!r}")
    return poly


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
