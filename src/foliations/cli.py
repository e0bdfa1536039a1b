"""Command-line surface: check, classify, syzygies, family, determine, make, gb, sat.

Exit codes: 0 success; 1 parse/validation errors (including precondition
failures and a missing input flag of ``make``); 2 the command needs an
integrable form and the input is not; 3 the ``--budget`` ran out, or
``determine`` found neither a witness on the family's unit lines nor a
certificate that the form is unique; 4 an internal check or certificate
failed, which is an engine bug and not a verdict.  ``classify --dir`` classifies the
files in turn, reports each failed file on stderr, with the line and the
code that ``classify <file>`` would give, and exits with the largest
per-file code.  ``--budget N`` bounds the S-pairs of all the Groebner and
syzygy loops of the whole command, of each file with ``--dir``
(``modules.pair_budget``).  ``--json`` selects a stable machine-readable report;
identical inputs produce byte-identical reports except for the timings
field.  ``main`` can be called many times in one process: it builds its
argument parser on the first call and reuses it.
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

from .classify import ConsistencyFailure, InternalInconsistency, classify
from .determine import (
    _combination,
    distribution_family,
    integrable_members,
    is_determined_by_singular_scheme,
    linear_syzygy_space,
    constant_syzygy_space,
)
from .formfile import FormFile, ParseError, parse_form_file, parse_polynomial, print_form_file
from .forms import (
    FormError,
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

INTERNAL_FAILURES = (InternalInconsistency, ConsistencyFailure, AssertionError)


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and stderr line of a failure the CLI reports; re-raises any other."""
    if isinstance(exc, ValueError):  # ParseError, FormError, input not UTF-8
        return 1, f"error: {exc}"
    if isinstance(exc, OSError):
        return 1, f"io error: {exc}"
    if isinstance(exc, StepBudgetExceeded):
        return 3, f"budget exhausted: {type(exc).__name__}: {exc}"
    if isinstance(exc, INTERNAL_FAILURES):
        return 4, f"internal check failed: {type(exc).__name__}: {exc}"
    raise exc


def _read_form(path: str) -> FormFile:
    return parse_form_file(Path(path).read_text(encoding="utf-8"))


def _report(input_path: str, **parts) -> dict:
    base = {
        "input": input_path,
        "degree": None,
        "verdicts": {},
        "splitting_type": None,
        "rao": None,
        "family": None,
        "timings": {},
    }
    base.update(parts)
    return base


def _emit(args, report: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _alpha(s: str) -> str:
    """Render a parameter-ring polynomial with a-names instead of z-names."""
    return s.replace("z", "a")


# -- subcommands ----------------------------------------------------------------


def cmd_check(args) -> int:
    started = time.monotonic()
    ff = _read_form(args.file)
    form = ff.form
    integrable = integrability_check(form)
    singular_ideal(form)  # raises CodimTooSmall on failure
    report = _report(
        args.file,
        degree=form.degree,
        verdicts={"integrable": integrable, "codim_ok": True},
        timings={"total_s": round(time.monotonic() - started, 3)},
    )
    _emit(args, report, [
        f"{args.file}: valid, degree {form.degree}, "
        + ("integrable" if integrable else "NOT integrable"),
    ])
    return 0 if integrable else 2


def _classification_payload(path: str) -> dict:
    ff = _read_form(path)
    if ff.form.ring.num_vars != 4:
        raise FormError("classify requires a P^3 form (ring z0 z1 z2 z3)")
    report = classify(ff.form)
    payload = _report(
        path,
        degree=report.degree,
        verdicts={
            "integrable": integrability_check(ff.form),
            "codim_ok": report.codim_ok,
            "saturated": report.saturated,
            "curve": report.is_curve,
            "acm": report.is_acm,
            "split": report.is_split,
        },
        splitting_type=list(report.splitting_type) if report.splitting_type else None,
        rao={str(k): v for k, v in report.rao_dims.items()} if report.rao_dims is not None else None,
    )
    payload["betti"] = {f"{i},{j}": v for (i, j), v in sorted(report.betti.items())}
    return payload


def _classify_file(path: str) -> tuple[str, dict | None, str | None, int]:
    """(path, payload, error, exit code) for one file of ``classify --dir``."""
    try:
        return path, _classification_payload(path), None, 0
    except Exception as exc:
        code, error = _failure(exc)
        return path, None, error, code


def _classify_text(payload: dict) -> str:
    v = payload["verdicts"]
    stype = payload["splitting_type"]
    bits = [
        f"degree {payload['degree']}",
        "integrable" if v["integrable"] else "not integrable",
        "saturated" if v["saturated"] else "not saturated",
        "curve" if v["curve"] else "not a curve",
        "ACM" if v["acm"] else "not ACM",
        ("split " + str(tuple(stype))) if v["split"] else "not split",
    ]
    return f"{payload['input']}: " + ", ".join(bits)


def cmd_classify(args) -> int:
    started = time.monotonic()
    if args.dir:
        paths = sorted(str(p) for p in Path(args.dir).glob("*.form"))
        if not paths:
            print(f"no .form files under {args.dir}", file=sys.stderr)
            return 1
        results = []
        for p in paths:
            with pair_budget(args.budget):  # each file has a budget of its own
                results.append(_classify_file(p))
        payloads = []
        for path, payload, error, _ in results:
            if error is not None:
                print(f"{path}: {error}", file=sys.stderr)
            else:
                payloads.append(payload)
                if not args.json:
                    print(_classify_text(payload))
        if args.json:
            print(json.dumps(payloads, sort_keys=True, indent=2))
        return max(code for *_, code in results)
    payload = _classification_payload(args.file)
    payload["timings"] = {"total_s": round(time.monotonic() - started, 3)}
    _emit(args, payload, [_classify_text(payload)])
    return 0


def cmd_syzygies(args) -> int:
    started = time.monotonic()
    ff = _read_form(args.file)
    form = ff.form
    if form.ring.num_vars != 4:
        raise FormError("syzygy analysis requires a P^3 form")
    linear = linear_syzygy_space(form)
    consts = constant_syzygy_space(form)
    payload = _report(
        args.file,
        degree=form.degree,
        verdicts={"integrable": integrability_check(form)},
        family={"dim": len(linear), "constant_dim": len(consts)},
        timings={"total_s": round(time.monotonic() - started, 3)},
    )
    # l_j = sum_i M_ij z_i, from the columns of each matrix
    z = form.ring.variables()
    rendered = [[str(_combination(column, z)) for column in zip(*m)] for m in linear]
    payload["linear_syzygies"] = rendered
    payload["constant_syzygies"] = [[str(x) for x in v] for v in consts]
    lines = [f"{args.file}: linear syzygy dimension {len(linear)}, constant dimension {len(consts)}"]
    for entries in rendered:
        lines.append("  (" + ", ".join(entries) + ")")
    for v in consts:
        lines.append("  constants (" + ", ".join(str(x) for x in v) + ")")
    _emit(args, payload, lines)
    return 0


def cmd_family(args) -> int:
    started = time.monotonic()
    ff = _read_form(args.file)
    form = ff.form
    if form.ring.num_vars != 4:
        raise FormError("family analysis requires a P^3 form")
    if not integrability_check(form):
        print(f"{args.file}: the base form is not integrable", file=sys.stderr)
        return 2
    family = distribution_family(form)
    outcome = integrable_members(family)
    payload = _report(
        args.file,
        degree=form.degree,
        verdicts={"integrable": True},
        family={
            "dim": family.parameter_dim,
            "integrable": outcome.kind,
            "members_found": len(outcome.members),
            "degenerate_locus": _alpha(str(family.degenerate_locus)),
        },
        timings={"total_s": round(time.monotonic() - started, 3)},
    )
    lines = [
        f"{args.file}: family dimension {family.parameter_dim}",
        f"  degenerate locus: {_alpha(str(family.degenerate_locus))}",
        f"  integrable members: {outcome.kind}, {len(outcome.members)} exhibited",
    ]
    for alpha, member in outcome.members:
        lines.append(f"  alpha={tuple(str(a) for a in alpha)}: {member}")
    _emit(args, payload, lines)
    return 3 if outcome.kind == "inconclusive" else 0


def cmd_determine(args) -> int:
    started = time.monotonic()
    ff = _read_form(args.file)
    form = ff.form
    if form.ring.num_vars != 4:
        raise FormError("determination analysis requires a P^3 form")
    if not integrability_check(form):
        print(f"{args.file}: the form is not integrable", file=sys.stderr)
        return 2
    verdict = is_determined_by_singular_scheme(form)
    payload = _report(
        args.file,
        degree=form.degree,
        verdicts={"integrable": True, "determination": verdict.kind},
        family={"route": verdict.route},
        timings={"total_s": round(time.monotonic() - started, 3)},
    )
    if verdict.witness is not None:
        payload["witness"] = str(verdict.witness)
    lines = [f"{args.file}: {verdict.kind} (route: {verdict.route})"]
    if verdict.witness is not None:
        lines.append(f"  witness: {verdict.witness}")
    _emit(args, payload, lines)
    return 3 if verdict.kind == "inconclusive" else 0


def cmd_gb(args) -> int:
    started = time.monotonic()
    ff = _read_form(args.file)
    I = singular_ideal(ff.form)
    gb = I.groebner_basis()
    payload = _report(
        args.file,
        degree=ff.form.degree,
        verdicts={},
        timings={"total_s": round(time.monotonic() - started, 3)},
    )
    payload["groebner_basis"] = [str(g) for g in gb]
    _emit(args, payload, [f"{args.file}: reduced Groebner basis"] + [f"  {g}" for g in gb])
    return 0


def cmd_sat(args) -> int:
    started = time.monotonic()
    ff = _read_form(args.file)
    I = singular_ideal(ff.form)
    sat = saturate(I)
    saturated = ideal_equal(I, sat)
    gb = sat.groebner_basis()
    h = hilbert_data(sat)
    payload = _report(
        args.file,
        degree=ff.form.degree,
        verdicts={"saturated": saturated},
        timings={"total_s": round(time.monotonic() - started, 3)},
    )
    payload["saturation"] = [str(g) for g in gb]
    payload["krull_dim"] = h.krull_dim
    lines = [
        f"{args.file}: ideal is {'saturated' if saturated else 'NOT saturated'}, "
        f"dim R/I^sat = {h.krull_dim}"
    ] + [f"  {g}" for g in gb]
    _emit(args, payload, lines)
    return 0


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
        weights = [Fraction(w.strip()) for w in _flag(args, "weights").split(",")]
        form = logarithmic_form(factors, weights)
        name = args.name or "logarithmic"
    elif args.kind == "pullback":
        plane = _read_form(_flag(args, "plane")).form
        form = pullback_from_plane(plane)
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


_COMMANDS = {
    "check": cmd_check,
    "classify": cmd_classify,
    "syzygies": cmd_syzygies,
    "family": cmd_family,
    "determine": cmd_determine,
    "gb": cmd_gb,
    "sat": cmd_sat,
    "make": cmd_make,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "classify" and not args.dir and not args.file:
        print("classify needs a file or --dir", file=sys.stderr)
        return 1
    try:
        with pair_budget(getattr(args, "budget", None)):  # ``make`` has none
            return _COMMANDS[args.command](args)
    except Exception as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
