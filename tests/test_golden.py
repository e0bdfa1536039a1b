"""Golden CLI reports of six commands on the corpus forms.

``data/golden_cli.json`` holds, for every corpus form, the exit code and
the ``--json`` report of each command with its ``timings`` removed.  The
reports must come back byte for byte: exact arithmetic has one answer, and
an ``int`` coefficient renders as the ``Fraction`` of the same value does.

Regenerate the file (only when a report is meant to change) with
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
from tests.conftest import build_corpus

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"
COMMANDS = ("gb", "sat", "classify", "determine", "syzygies", "family")


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


def test_corpus_reports_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reports = render_corpus(tmp_path)
    assert sorted(reports) == sorted(golden)
    for name, by_command in golden.items():
        for command, expected in by_command.items():
            assert reports[name][command] == expected, (name, command)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = render_corpus(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
