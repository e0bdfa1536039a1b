"""Command-line surface: check, classify, syzygies, family, determine, make, gb, sat.

Every form command runs one pipeline, in ``main`` and ``_run``: read the
``.form`` file; apply the P^3 gate and the integrability gate that the
command's entry in ``_COMMANDS`` asks for; run the command, which returns its
exit code, its fields of the report and its text lines; add the input, the
degree and the ``timings`` to the report; print the JSON report with
``--json``, else the text lines.  ``classify --dir`` runs the same read,
gates and command on each file in turn, reports each failed file on stderr,
with the line and the code that ``classify <file>`` would give, and exits
with the largest per-file code.  ``make`` writes a fixture and prints one line.

Exit codes: 0 success; 1 parse/validation errors (including precondition
failures, a missing input flag of ``make`` and a negative ``--budget``);
2 the command needs an integrable form and the input is not, or argparse
rejected the command line (``--budget abc``: usage on stderr, then
``SystemExit(2)``); 3 the ``--budget`` ran out, or ``determine`` found
neither a witness on the family's unit lines nor a certificate that the form
is unique; 4 an internal check or certificate failed, which is an engine bug
and not a verdict.  ``--budget N`` bounds the S-pairs of all the Groebner
and syzygy loops of the whole command, of each file with ``--dir``
(``modules.pair_budget``).  ``--json`` selects a stable machine-readable
report; identical inputs produce byte-identical reports except for the
timings field.  ``main`` can be called many times in one process: it builds
its argument parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

from .classify import InternalInconsistency, classify
from .determine import (
    _combination,
    distribution_family,
    integrable_members,
    is_determined_by_singular_scheme,
    linear_syzygy_space,
    constant_syzygy_space,
)
from .formfile import ParseError, parse_form_file, parse_polynomial, print_form_file
from .forms import (
    FormError,
    ProjectiveOneForm,
    exceptional_form,
    integrability_check,
    logarithmic_form,
    pullback_from_plane,
    singular_ideal,
    validate,
)
from .groebner import ideal_equal
from .hilbert import hilbert_data
from .modules import StepBudgetExceeded, pair_budget
from .rings import PolyRing
from .saturation import saturate

INTERNAL_FAILURES = (InternalInconsistency, AssertionError)

Outcome = tuple[int, dict, list[str]]
"""What a command returns: its exit code, its fields of the report, its text lines."""


class NotIntegrable(Exception):
    """The command needs an integrable form and the input is not one: exit 2."""


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and stderr line of a failure the CLI reports; re-raises any other."""
    if isinstance(exc, ValueError):  # ParseError, FormError, input not UTF-8
        return 1, f"error: {exc}"
    if isinstance(exc, OSError):
        return 1, f"io error: {exc}"
    if isinstance(exc, NotIntegrable):
        return 2, str(exc)
    if isinstance(exc, StepBudgetExceeded):
        return 3, f"budget exhausted: {type(exc).__name__}: {exc}"
    if isinstance(exc, INTERNAL_FAILURES):
        return 4, f"internal check failed: {type(exc).__name__}: {exc}"
    raise exc


def _read_form(path: str) -> ProjectiveOneForm:
    return parse_form_file(Path(path).read_text(encoding="utf-8")).form


def _alpha(s: str) -> str:
    """Render a parameter-ring polynomial with a-names instead of z-names."""
    return s.replace("z", "a")


# -- subcommands ----------------------------------------------------------------
# Each takes the form that passed its gates; its first text line comes
# without the file name, which ``_run`` puts in front.


def cmd_check(form: ProjectiveOneForm) -> Outcome:
    integrable = integrability_check(form)
    singular_ideal(form)  # raises CodimTooSmall on failure
    verdicts = {"integrable": integrable, "codim_ok": True}
    line = f"valid, degree {form.degree}, " + ("integrable" if integrable else "NOT integrable")
    return (0 if integrable else 2), {"verdicts": verdicts}, [line]


def cmd_classify(form: ProjectiveOneForm) -> Outcome:
    report = classify(form)
    stype = list(report.splitting_type) if report.splitting_type else None
    verdicts = {
        "integrable": integrability_check(form),
        "codim_ok": report.codim_ok,
        "saturated": report.saturated,
        "curve": report.is_curve,
        "acm": report.is_acm,
        "split": report.is_split,
    }
    fields = {
        "verdicts": verdicts,
        "splitting_type": stype,
        "rao": {str(k): v for k, v in report.rao_dims.items()} if report.rao_dims is not None else None,
        "betti": {f"{i},{j}": v for (i, j), v in sorted(report.betti.items())},
    }
    bits = [
        f"degree {report.degree}",
        "integrable" if verdicts["integrable"] else "not integrable",
        "saturated" if report.saturated else "not saturated",
        "curve" if report.is_curve else "not a curve",
        "ACM" if report.is_acm else "not ACM",
        ("split " + str(tuple(stype))) if report.is_split else "not split",
    ]
    return 0, fields, [", ".join(bits)]


def cmd_syzygies(form: ProjectiveOneForm) -> Outcome:
    linear = linear_syzygy_space(form)
    consts = constant_syzygy_space(form)
    # l_j = sum_i M_ij z_i, from the columns of each matrix
    z = form.ring.variables()
    rendered = [[str(_combination(column, z)) for column in zip(*m)] for m in linear]
    constants = [[str(x) for x in v] for v in consts]
    fields = {
        "verdicts": {"integrable": integrability_check(form)},
        "family": {"dim": len(linear), "constant_dim": len(consts)},
        "linear_syzygies": rendered,
        "constant_syzygies": constants,
    }
    lines = [f"linear syzygy dimension {len(linear)}, constant dimension {len(consts)}"]
    lines += ["  (" + ", ".join(entries) + ")" for entries in rendered]
    lines += ["  constants (" + ", ".join(v) + ")" for v in constants]
    return 0, fields, lines


def cmd_family(form: ProjectiveOneForm) -> Outcome:
    family = distribution_family(form)
    outcome = integrable_members(family)
    locus = _alpha(str(family.degenerate_locus))
    fields = {
        "verdicts": {"integrable": True},
        "family": {
            "dim": family.parameter_dim,
            "integrable": outcome.kind,
            "members_found": len(outcome.members),
            "degenerate_locus": locus,
        },
    }
    lines = [
        f"family dimension {family.parameter_dim}",
        f"  degenerate locus: {locus}",
        f"  integrable members: {outcome.kind}, {len(outcome.members)} exhibited",
    ]
    lines += [f"  alpha={tuple(str(a) for a in alpha)}: {member}" for alpha, member in outcome.members]
    return (3 if outcome.kind == "inconclusive" else 0), fields, lines


def cmd_determine(form: ProjectiveOneForm) -> Outcome:
    verdict = is_determined_by_singular_scheme(form)
    fields = {
        "verdicts": {"integrable": True, "determination": verdict.kind},
        "family": {"route": verdict.route},
    }
    lines = [f"{verdict.kind} (route: {verdict.route})"]
    if verdict.witness is not None:
        fields["witness"] = str(verdict.witness)
        lines.append(f"  witness: {verdict.witness}")
    return (3 if verdict.kind == "inconclusive" else 0), fields, lines


def cmd_gb(form: ProjectiveOneForm) -> Outcome:
    gb = [str(g) for g in singular_ideal(form).groebner_basis()]
    return 0, {"groebner_basis": gb}, ["reduced Groebner basis"] + [f"  {g}" for g in gb]


def cmd_sat(form: ProjectiveOneForm) -> Outcome:
    I = singular_ideal(form)
    sat = saturate(I)
    saturated = ideal_equal(I, sat)
    gb = [str(g) for g in sat.groebner_basis()]
    h = hilbert_data(sat)
    fields = {"verdicts": {"saturated": saturated}, "saturation": gb, "krull_dim": h.krull_dim}
    line = f"ideal is {'saturated' if saturated else 'NOT saturated'}, dim R/I^sat = {h.krull_dim}"
    return 0, fields, [line] + [f"  {g}" for g in gb]


def _parse_poly_list(ring: PolyRing, text: str):
    """The comma-separated polynomials of ``text``; an error names its factor."""
    out = []
    start = 0
    for number, chunk in enumerate(text.split(","), 1):
        # blank out what precedes the chunk, keeping its newlines and width
        before = re.sub(r"[^\n]", " ", text[:start])
        try:
            out.append(parse_polynomial(ring, before + chunk))
        except ParseError as exc:
            raise ParseError(f"{exc.message} in factor {number}", exc.line, exc.column) from None
        start += len(chunk) + 1
    return out


def _parse_weights(text: str) -> list[Fraction]:
    """The comma-separated rational weights of ``text``; a bad or zero-denominator one is named."""
    weights = []
    for number, chunk in enumerate(text.split(","), 1):
        try:
            weights.append(Fraction(chunk.strip()))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in weight {number} {chunk.strip()!r}") from None
        except ValueError:
            raise ValueError(f"bad weight {number} {chunk.strip()!r}") from None
    return weights


def _flag(args, name: str) -> str:
    """The value of a flag that ``make <kind>`` needs; ValueError when absent."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"make {args.kind} needs --{name}")
    return value


def cmd_make(args) -> int:
    if args.kind == "logarithmic":
        ring = PolyRing(args.vars)
        factors = _parse_poly_list(ring, _flag(args, "factors"))
        form = logarithmic_form(factors, _parse_weights(_flag(args, "weights")))
        name = args.name or "logarithmic"
    elif args.kind == "pullback":
        form = pullback_from_plane(_read_form(_flag(args, "plane")))
        name = args.name or "pullback"
    elif args.kind == "exceptional":
        form = exceptional_form(args.d)
        name = args.name or f"exceptional-d{args.d}"
    elif args.kind == "pencil":
        ring = PolyRing(4)
        z = ring.variables()
        form = validate([z[1], -z[0], ring.zero(), ring.zero()])
        name = args.name or "pencil"
    else:
        raise ValueError(f"unknown constructor {args.kind!r}")
    text = print_form_file(form, name=name, expected_degree=form.degree)
    Path(args.output).write_text(text, encoding="utf-8")
    print(f"wrote {args.output} (degree {form.degree})")
    return 0


# -- argument parsing -------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliations",
        description="Exact analysis of codimension-one foliations on P^3 via their singular schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="a .form input file")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--budget", type=int, help="S-pairs for the command (per file with --dir)")

    common(sub.add_parser("check", help="validate, integrability, codimension"))
    p = sub.add_parser("classify", help="saturated/curve/ACM/split verdicts and splitting type")
    p.add_argument("file", nargs="?", help="a .form input file")
    p.add_argument("--dir", help="classify every .form file in a directory")
    common(p, needs_file=False)
    common(sub.add_parser("syzygies", help="linear and constant syzygy spaces"))
    common(sub.add_parser("family", help="distribution family and integrable members"))
    common(sub.add_parser("determine", help="determination by the singular scheme"))
    common(sub.add_parser("gb", help="reduced Groebner basis of the singular ideal"))
    common(sub.add_parser("sat", help="saturation of the singular ideal"))

    mk = sub.add_parser("make", help="write constructor fixtures as .form files")
    mk.add_argument("kind", choices=["logarithmic", "pullback", "exceptional", "pencil"])
    mk.add_argument("-o", "--output", required=True)
    mk.add_argument("--vars", type=int, default=4, help="ring size for logarithmic (3 or 4)")
    mk.add_argument("--factors", help="comma-separated factor polynomials")
    mk.add_argument("--weights", help="comma-separated rational weights")
    mk.add_argument("--plane", help="plane .form file for pullback")
    mk.add_argument("--d", type=int, default=2, help="degree parameter for exceptional")
    mk.add_argument("--name", help="name metadata for the output file")
    return parser


# command -> (run, the error when the form is not on P^3, the stderr line
# after the file name when the form is not integrable); None skips a gate
_COMMANDS = {
    "check": (cmd_check, None, None),
    "classify": (cmd_classify, "classify requires a P^3 form (ring z0 z1 z2 z3)", None),
    "syzygies": (cmd_syzygies, "syzygy analysis requires a P^3 form", None),
    "family": (
        cmd_family, "family analysis requires a P^3 form", "the base form is not integrable",
    ),
    "determine": (
        cmd_determine, "determination analysis requires a P^3 form", "the form is not integrable",
    ),
    "gb": (cmd_gb, None, None),
    "sat": (cmd_sat, None, None),
}


def _run(command: str, path: str) -> tuple[int, dict, list[str]]:
    """Read ``path``, apply the command's gates and run it: exit code, report, text lines."""
    form = _read_form(path)
    run, plane_error, not_integrable = _COMMANDS[command]
    if plane_error and form.ring.num_vars != 4:
        raise FormError(plane_error)
    if not_integrable and not integrability_check(form):
        raise NotIntegrable(f"{path}: {not_integrable}")
    code, fields, lines = run(form)
    report = {"input": path, "degree": form.degree, "verdicts": {}, "splitting_type": None,
              "rao": None, "family": None, "timings": {}, **fields}
    return code, report, [f"{path}: {lines[0]}", *lines[1:]]


def _classify_dir(args) -> int:
    """``classify --dir``: every file with a pair budget of its own; the largest exit code."""
    paths = sorted(str(p) for p in Path(args.dir).glob("*.form"))
    if not paths:
        print(f"no .form files under {args.dir}", file=sys.stderr)
        return 1
    codes, reports = [0], []
    for path in paths:
        try:
            with pair_budget(args.budget):
                _, report, lines = _run("classify", path)
        except Exception as exc:
            code, error = _failure(exc)
            codes.append(code)
            print(f"{path}: {error}", file=sys.stderr)
            continue
        reports.append(report)
        if not args.json:
            print("\n".join(lines))
    if args.json:
        print(json.dumps(reports, sort_keys=True, indent=2))
    return max(codes)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "classify" and bool(args.dir) == bool(args.file):
        need = "takes a file or --dir, not both" if args.dir else "needs a file or --dir"
        print(f"classify {need}", file=sys.stderr)
        return 1
    try:
        with pair_budget(getattr(args, "budget", None)):  # ``make`` has none
            if args.command == "make":
                return cmd_make(args)
            if args.command == "classify" and args.dir:
                return _classify_dir(args)
            started = time.monotonic()
            code, report, lines = _run(args.command, args.file)
            report["timings"] = {"total_s": round(time.monotonic() - started, 3)}
            print(json.dumps(report, sort_keys=True, indent=2) if args.json else "\n".join(lines))
            return code
    except Exception as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
