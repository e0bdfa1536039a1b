"""Time to a verified verdict for `classify` and `determine` on fixed P^3 forms.

    python3 bench/run.py --workload classify-batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``.  One
run builds the workload's forms (set-up), then repeats whole passes over
them while the next pass is expected to end within ``--seconds``; every
operation in a pass is stopped at ``TIME_LIMIT_S``.  After the timed
passes, every answer is checked by ``checks.py``, apart from the program.
Each operation ends verified, failed (it raised, exited non-zero, returned
``inconclusive`` or hit the time limit) or incorrect (an answer contradicts
a check); any incorrect operation makes the run exit 1.  The end-to-end
times are scaled to a reference speed (see ``REFERENCE_S``), so that the
host's drift in speed between runs does not show in them.

``--workload all`` runs each workload in turn, in a process of its own, and
prints its metrics by name and unit with the operations attempted and failed.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate; the traced passes
record spans around the calls into each layer, and the last line holds the
per-layer metrics, with the tracing overhead against the untraced pass
before each traced one.  Spans of the first traced pass and a per-form
record go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Far above the 0.5-0.6 s that the two stalled forms of `resolution-heavy`
# take once the module loops select pairs by lowest lcm degree, so that
# mending that fault shows; far below what they take today.
TIME_LIMIT_S = 3.0
SETUP_REPEATS = 5
# The import dominates set-up time and varies most, so it is sampled more.
IMPORT_PROBES = 15
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import foliations.cli; "
    "print(time.perf_counter() - t)"
)
STOPPED = f"stopped at the {TIME_LIMIT_S} s time limit"

# The reference: a fixed computation like the engine's inner loop that never
# calls the program, the square of a polynomial with Fraction coefficients
# held as an {exponent tuple: coefficient} dict.  It is timed before every
# operation and set-up step.  A shared host's speed drifts by up to 30%
# between runs minutes apart, and the reference follows that drift.  So the
# times of a run are scaled by REFERENCE_S over its median reference time:
# they read as on a host where the reference takes REFERENCE_S, its median
# on the 2-core x86-64 host where the benchmark was written.
REFERENCE_POLY = {
    (i % 3, 5 * i % 4, 7 * i % 3, i % 2): Fraction(7 * i - 30, i + 2) for i in range(24)
}
REFERENCE_S = 0.00072


class TimeLimit(BaseException):
    """Raised in the running operation when it reaches the time limit."""


class OperationFailed(Exception):
    pass


def _on_alarm(signum, frame):
    raise TimeLimit()


def reference_s() -> float:
    """Seconds that the reference computation takes now.

    The collector is off meanwhile, so that the time does not depend on how
    many objects the program holds.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        square: dict = {}
        for e1, c1 in REFERENCE_POLY.items():
            for e2, c2 in REFERENCE_POLY.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                square[e] = square.get(e, 0) + c1 * c2
        return time.perf_counter() - start
    finally:
        gc.enable()


# -- operations -------------------------------------------------------------------


def _terms(poly) -> dict:
    return dict(poly.terms)


def _classify_answer(split, saturated, stype, betti) -> dict:
    return {
        "split": bool(split),
        "saturated": bool(saturated),
        "type": tuple(stype) if stype else None,
        "betti": dict(sorted(betti.items())),
    }


def make_operations(workload: str, forms, tracer, form_dir: Path | None):
    """One zero-argument callable per form, returning its raw answer."""
    from foliations import classify as classify_mod, cli, determine

    if tracer is not None:
        cli_main = tracer.entry("cli", "main")
        classify = tracer.entry("classify", "classify")
        determine_fn = tracer.entry("determine", "is_determined_by_singular_scheme")
    else:
        cli_main = cli.main
        classify = classify_mod.classify
        determine_fn = determine.is_determined_by_singular_scheme

    ops = []
    for name, form in forms:
        if workload == "classify-batch":
            path = str(form_dir / f"{name}.form")

            def op(path=path):
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli_main(["classify", path, "--json"])
                if code != 0:
                    raise OperationFailed(f"exit code {code}")
                return out.getvalue()

        elif workload == "determine-split":

            def op(form=form):
                return determine_fn(form)

        else:

            def op(form=form):
                return classify(form)

        ops.append(op)
    return ops


def normalize(workload: str, raw) -> dict:
    """The answer as plain data, comparable across passes and checkable."""
    if workload == "classify-batch":
        payload = json.loads(raw)
        v = payload["verdicts"]
        betti = {
            tuple(int(x) for x in k.split(",")): n for k, n in payload["betti"].items()
        }
        return _classify_answer(v["split"], v["saturated"], payload["splitting_type"], betti)
    if workload == "determine-split":
        witness = raw.witness
        return {
            "kind": raw.kind,
            "route": raw.route,
            "witness": None if witness is None else [_terms(g) for g in witness.coefficients],
        }
    return _classify_answer(raw.is_split, raw.saturated, raw.splitting_type, raw.betti)


def run_pass(ops, references: list[float]) -> list[tuple[float, object, str | None]]:
    """(seconds, raw answer or None, failure or None) for each operation.

    A reference time is appended to ``references`` before each operation.
    """
    results = []
    for op in ops:
        references.append(reference_s())
        error = None
        raw = None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
        try:
            raw = op()
        except TimeLimit:
            error = STOPPED
        except Exception as exc:  # any raise is a failed operation, recorded by type
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if error is None and getattr(raw, "kind", None) == "inconclusive":
            error = f"inconclusive ({raw.route})"
        results.append((elapsed, raw, error))
    return results


# -- checks -----------------------------------------------------------------------


def check_answer(workload: str, name: str, form, answer: dict) -> None:
    """Raise checks.CheckFailed when the answer contradicts a check."""
    import checks
    from foliations.forms import singular_ideal
    from foliations.saturation import saturate

    coefficients = [_terms(f) for f in form.coefficients]
    if workload == "determine-split":
        if answer["kind"] == "unique":
            checks.check_unique(coefficients, form.degree)
        elif answer["kind"] == "non-unique":
            checks.check_non_unique(coefficients, answer["witness"])
        else:
            raise checks.CheckFailed(f"unknown verdict {answer['kind']!r}")
        return
    I = singular_ideal(form)
    gb = [_terms(g) for g in I.groebner_basis()]
    sat = [_terms(g) for g in saturate(I).generators]
    checks.check_singular_ideal(coefficients, gb)
    checks.check_saturation(coefficients, sat)
    checks.check_saturated_verdict(answer["saturated"], coefficients, sat)
    checks.check_betti_against_hilbert(answer["betti"], sat)
    if name.startswith("pullback-d"):
        checks.check_pullback_type(answer["split"], answer["type"], int(name[len("pullback-d")]))
    if answer["split"]:
        checks.check_betti_of_split(answer["betti"], answer["type"], form.degree)
    else:
        checks.check_not_split(answer["saturated"], answer["type"], coefficients, form.degree)


def judge(workload: str, forms, passes) -> tuple[list[str], list[str]]:
    """Outcome of each form ('verified', 'failed' or 'incorrect') and notes."""
    import checks

    outcomes, notes = [], []
    for k, (name, form) in enumerate(forms):
        _, first_raw, first_error = passes[0][k]
        if first_error is not None:
            outcomes.append("failed")
            notes.append(first_error)
            continue
        answer = normalize(workload, first_raw)
        try:
            check_answer(workload, name, form, answer)
        except checks.CheckFailed as exc:
            outcomes.append("incorrect")
            notes.append(str(exc))
            continue
        changed = [
            p for p in passes[1:] if p[k][2] is None and normalize(workload, p[k][1]) != answer
        ]
        if changed:
            outcomes.append("incorrect")
            notes.append("the answer differs between passes")
        else:
            outcomes.append("verified")
            notes.append("")
    return outcomes, notes


# -- set-up -------------------------------------------------------------------------


def measure_import_s(references: list[float]) -> float:
    """Median time for a fresh interpreter to import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        references.append(reference_s())
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def build_inputs(workload, seed: int, form_dir: Path | None):
    import workloads

    forms = workloads.build(workload, seed)
    if form_dir is not None:
        for name, form in forms:
            text = workloads.form_text(name, form)
            (form_dir / f"{name}.form").write_text(text, encoding="utf-8")
    return forms


# -- main ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_all(args, names) -> int:
    """Run every workload in a process of its own and print its metrics."""
    worst = 0
    for name in names:
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT, capture_output=True, text=True,
        )
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        print(
            f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
            f"correct {str(result['correct']).lower()}"
        )
        for metric, m in result["metrics"].items():
            print(f"  {metric:26s} {m['value']:.6g} {m['unit']}")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "foliations" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'foliations'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import foliations

    if Path(foliations.__file__).resolve().parent != SRC / "foliations":
        print(f"error: imported foliations from {foliations.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="forms-") as tmp:
        form_dir = Path(tmp) if workload.name == "classify-batch" else None
        references: list[float] = []
        import_s = measure_import_s(references)
        build_times = []
        for _ in range(SETUP_REPEATS):
            references.append(reference_s())
            start = time.perf_counter()
            forms = build_inputs(workload, args.seed, form_dir)
            build_times.append(time.perf_counter() - start)
        setup_raw_s = import_s + statistics.median(build_times)

        signal.signal(signal.SIGALRM, _on_alarm)
        ops = make_operations(workload.name, forms, None, form_dir)
        tracer = Tracer() if args.trace else None
        plain, traced, pass_stats, spans = [], [], [], []
        started = time.perf_counter()
        while True:
            plain.append(run_pass(ops, references))
            if tracer is not None:
                # each traced pass follows an untraced one, its reference for the overhead
                tracer.install()
                pass_stats.append(tracer.new_pass(record_spans=not traced))
                traced.append(
                    run_pass(make_operations(workload.name, forms, tracer, form_dir), references)
                )
                if len(traced) == 1:
                    spans = tracer.span_records()
                tracer.uninstall()
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(plain) > args.seconds:
                break  # the next pass would end after the run's measuring time
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = plain + traced
        outcomes, notes = judge(workload.name, forms, passes)

    verified = [o == "verified" for o in outcomes]
    attempted = len(passes) * len(forms)
    failed = sum(1 for p in passes for _, _, error in p if error is not None)
    incorrect = outcomes.count("incorrect")
    # A stopped operation keeps its wall time: the time limit is in wall seconds.
    scale = REFERENCE_S / statistics.median(references)
    plain_s = [[t if e == STOPPED else t * scale for t, _, e in p] for p in plain]
    pass_s = [sum(p) for p in plain_s]
    form_s = [statistics.median(p[k] for p in plain_s) for k in range(len(forms))]

    if tracer is None:
        metrics = {
            "setup_s": _metric(setup_raw_s * scale, "s"),
            "forms_per_s": _metric(
                statistics.median(
                    sum(1 for (_, _, e), ok in zip(p, verified) if ok and e is None) / s
                    for p, s in zip(plain, pass_s)
                ),
                "1/s",
            ),
            "form_p50_s": _metric(statistics.median(form_s), "s"),
            "slowest_form_s": _metric(max(form_s), "s"),
            "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
        }
    else:
        per_pass = [s.metrics() for s in pass_stats]
        metrics = {}
        for key in per_pass[0]:
            unit = (
                "s" if key.endswith("_s") else "ratio" if key.endswith("_ratio")
                else "bits" if key.endswith("_bits_max") else "count"
            )
            metrics[key] = _metric(statistics.median(m[key] for m in per_pass), unit)
        overhead = statistics.median(
            sum(t for t, _, _ in p) / sum(t for t, _, _ in q) - 1 for p, q in zip(traced, plain)
        )
        metrics["trace.overhead_pct"] = _metric(overhead * 100, "%")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "reference_scale": scale,
        "pass_s": pass_s,
        "forms": [
            {"name": name, "degree": form.degree, "median_s": t, "outcome": o, "note": n}
            for (name, form), t, o, n in zip(forms, form_s, outcomes, notes)
        ],
        "metrics": metrics,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")

    for entry in record["forms"]:
        print(f"{entry['name']:28s} {entry['median_s']:8.4f} s  {entry['outcome']}  {entry['note']}")
    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
