"""Golden CLI output: the ``--json`` reports and the text mode.

``data/golden_cli.json`` holds, for every corpus form, the exit code and
the ``--json`` report of six commands with its ``timings`` removed.  The
reports must come back byte for byte: exact arithmetic has one answer, and
an ``int`` coefficient renders as the ``Fraction`` of the same value does.

``data/golden_cli_text.json`` holds the exit code, stdout and stderr of the
seven form commands in text mode on every corpus form and on the forms that
the gates stop: a P^2 form, the contact form (not integrable) and a form
that does not parse.  It also holds ``classify --dir`` over good and bad
files, so every gate's stderr line is pinned.

Regenerate both files (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from foliations.cli import main
from foliations.formfile import print_form_file
from foliations.forms import validate
from foliations.rings import PolyRing
from tests.conftest import build_corpus

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"
GOLDEN_TEXT = GOLDEN.with_name("golden_cli_text.json")
COMMANDS = ("gb", "sat", "classify", "determine", "syzygies", "family")
TEXT_COMMANDS = ("check", "classify", "syzygies", "family", "determine", "gb", "sat")


def _report(command: str, path: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, path, "--json"])
    text = out.getvalue()
    if text:
        payload = json.loads(text)
        payload.pop("timings", None)
        text = json.dumps(payload, sort_keys=True, indent=2)
    return {"exit": code, "json": text}


def render_corpus(directory: Path) -> dict:
    """name -> command -> {exit, json}, run from ``directory`` on relative paths."""
    reports: dict = {}
    here = os.getcwd()
    os.chdir(directory)
    try:
        for name, form in build_corpus():
            path = f"{name}.form"
            Path(path).write_text(print_form_file(form, name=name), encoding="utf-8")
            reports[name] = {command: _report(command, path) for command in COMMANDS}
    finally:
        os.chdir(here)
    return reports


def _gate_cases() -> dict[str, str]:
    """name -> file text of the forms that a gate stops."""
    P, R = PolyRing(3), PolyRing(4)
    w, z = P.variables(), R.variables()
    return {
        "plane": print_form_file(validate([w[1], -w[0], P.zero()]), name="plane"),
        "contact": print_form_file(validate([z[1], -z[0], z[3], -z[2]]), name="contact"),
        "unparsable": "ring z0 z1 z2 z3\nform (z0 +) dz0\n",
    }


def _text_run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def render_text(directory: Path) -> dict:
    """argv -> {exit, stdout, stderr} in text mode, run from ``directory``."""
    files = {name: print_form_file(form, name=name) for name, form in build_corpus()}
    files.update(_gate_cases())
    runs: dict = {}
    here = os.getcwd()
    os.chdir(directory)
    try:
        for name, text in files.items():
            Path(f"{name}.form").write_text(text, encoding="utf-8")
            for command in TEXT_COMMANDS:
                argv = [command, f"{name}.form"]
                runs[" ".join(argv)] = _text_run(argv)
        for sub, names in {"good": ("pencil", "L1111"), "bad": ("L112", *_gate_cases())}.items():
            os.mkdir(sub)
            for name in names:
                Path(sub, f"{name}.form").write_text(files[name], encoding="utf-8")
        Path("bad", "binary.form").write_bytes(b"ring z0 z1 z2 z3\nform \xff dz0\n")
        for argv in (["classify", "--dir", "good"], ["classify", "--dir", "bad"]):
            runs[" ".join(argv)] = _text_run(argv)
    finally:
        os.chdir(here)
    return runs


def test_text_output_and_gates_match_golden(tmp_path):
    golden = json.loads(GOLDEN_TEXT.read_text(encoding="utf-8"))
    runs = render_text(tmp_path)
    assert sorted(runs) == sorted(golden)
    for argv, expected in golden.items():
        assert runs[argv] == expected, argv


def test_corpus_reports_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reports = render_corpus(tmp_path)
    assert sorted(reports) == sorted(golden)
    for name, by_command in golden.items():
        for command, expected in by_command.items():
            assert reports[name][command] == expected, (name, command)


if __name__ == "__main__":
    for path, render in ((GOLDEN, render_corpus), (GOLDEN_TEXT, render_text)):
        with tempfile.TemporaryDirectory() as tmp:
            data = render(Path(tmp))
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
