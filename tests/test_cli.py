"""Command surface: exit codes, JSON stability, corpus mode."""

import json
from pathlib import Path

import pytest

from foliations.classify import InternalInconsistency
from foliations.cli import main
from foliations.formfile import parse_form_file, parse_polynomial, print_form_file
from foliations.forms import validate
from foliations.rings import PolyRing

R = PolyRing(4)
Z = R.variables()


@pytest.fixture()
def l1111_file(tmp_path):
    path = tmp_path / "l1111.form"
    assert main([
        "make", "logarithmic",
        "--factors", "z0,z1,z2,z3",
        "--weights", "1,1,1,-3",
        "-o", str(path),
    ]) == 0
    return str(path)


def test_make_then_check_round_trip(l1111_file):
    assert main(["check", l1111_file]) == 0


def test_check_non_integrable_exits_2(tmp_path, capsys):
    contact = validate([Z[1], -Z[0], Z[3], -Z[2]])
    path = tmp_path / "contact.form"
    path.write_text(print_form_file(contact))
    assert main(["check", str(path)]) == 2


def test_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.form"
    path.write_text("ring z0 z1 z2 z3\nform (z0) dz0\n")
    assert main(["check", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_zero_denominator_exits_1_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "zero.form"
    path.write_text("ring z0 z1 z2 z3\nform (1/0*z1) dz0 - (z0) dz1\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "2:7: zero denominator in '1/0'" in err and "Traceback" not in err


def test_make_reads_differences_without_spaces(tmp_path, capsys):
    spaced, tight = tmp_path / "spaced.form", tmp_path / "tight.form"
    for path, factors in ((spaced, "z0 - z1,z0 + z1,z2"), (tight, "z0-z1,z0+z1,z2")):
        argv = ["make", "logarithmic", "--factors", factors, "--weights", "1,1,-2", "-o", str(path)]
        assert main(argv) == 0
    assert tight.read_text() == spaced.read_text()
    assert main(["check", str(tight)]) == 0


def test_classify_json_schema(l1111_file, capsys):
    assert main(["classify", l1111_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 2
    assert out["verdicts"]["saturated"] is True
    assert out["verdicts"]["acm"] is True
    assert out["verdicts"]["split"] is True
    assert out["splitting_type"] == [0, 0]
    assert out["rao"] == {}
    assert set(out) >= {"input", "degree", "verdicts", "splitting_type", "rao", "family", "timings"}


def test_json_reports_are_stable_modulo_timings(l1111_file, capsys):
    main(["classify", l1111_file, "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["classify", l1111_file, "--json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_determine_verdicts(l1111_file, tmp_path, capsys):
    assert main(["determine", l1111_file]) == 0
    out = capsys.readouterr().out
    assert "non-unique" in out
    exc = tmp_path / "exceptional.form"
    assert main(["make", "exceptional", "--d", "2", "-o", str(exc)]) == 0
    capsys.readouterr()
    assert main(["determine", str(exc)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{exc}: unique (route: ")
    assert "non-unique" not in out


def test_syzygies_and_family(l1111_file, capsys):
    assert main(["syzygies", l1111_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"]["dim"] == 3
    assert main(["family", l1111_file, "--json"]) == 0
    fam = json.loads(capsys.readouterr().out)
    assert fam["family"]["integrable"] == "positive"


def test_gb_and_sat(l1111_file, capsys):
    assert main(["gb", l1111_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{l1111_file}: reduced Groebner basis"
    assert sorted(line.strip() for line in lines[1:]) == sorted(
        ["z1*z2*z3", "z0*z2*z3", "z0*z1*z3", "z0*z1*z2"]
    )
    assert main(["sat", l1111_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["saturated"] is True
    assert out["krull_dim"] == 2


def test_sat_saturates_once(l1111_file, monkeypatch, capsys):
    import foliations.cli as cli
    import foliations.saturation as saturation

    calls = []
    real = saturation.saturate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(saturation, "saturate", counting)
    monkeypatch.setattr(cli, "saturate", counting)
    assert main(["sat", l1111_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["saturated"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("name, sat_runs", [("L1111", 3), ("L112", 4)])
def test_gb_and_sat_run_the_loop_once_on_i(name, sat_runs, tmp_path, monkeypatch, capsys):
    # the codim check takes the integral basis of I, and the reduced basis
    # that gb prints is its interreduction: one run.  sat reads the same
    # basis on its first line (z3), then takes one run per further line: z0
    # and t = 1 for L1111, and t = 2 too for L112; both are saturated
    import foliations.modules as modules

    from .conftest import build_corpus

    path = tmp_path / f"{name}.form"
    path.write_text(print_form_file(dict(build_corpus())[name]))
    runs = []
    real = modules._buchberger
    monkeypatch.setattr(modules, "_buchberger", lambda *a, **k: runs.append(a) or real(*a, **k))
    assert main(["gb", str(path)]) == 0 and len(runs) == 1
    capsys.readouterr()
    runs.clear()
    assert main(["sat", str(path), "--json"]) == 0 and len(runs) == sat_runs
    assert json.loads(capsys.readouterr().out)["verdicts"]["saturated"] is True


def test_sat_of_an_unsaturated_ideal_prints_the_reduced_basis(tmp_path, capsys):
    # the singular ideal of DISTRIBUTION_D2 is not saturated: saturate hands
    # back an integral basis, and sat prints the reduced basis of I^sat
    from foliations.formfile import parse_form_file
    from foliations.forms import singular_ideal
    from foliations.groebner import Ideal
    from foliations.saturation import saturate_by_colon

    from .conftest import DISTRIBUTION_D2

    path = tmp_path / "d2.form"
    path.write_text(DISTRIBUTION_D2)
    assert main(["sat", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    form = parse_form_file(DISTRIBUTION_D2).form
    oracle = saturate_by_colon(Ideal(R, singular_ideal(form).generators))
    assert out["verdicts"]["saturated"] is False
    assert out["saturation"] == [str(g) for g in oracle.groebner_basis()]


@pytest.mark.parametrize("exc", [
    InternalInconsistency("split routes disagree"),
    # the check of the Betti table against the Hilbert series raises it too
    InternalInconsistency("the Betti table does not give the Hilbert series of R/I^sat"),
    AssertionError("syzygy certificate failed to expand to zero"),
])
def test_failed_internal_checks_exit_4(l1111_file, monkeypatch, capsys, exc):
    import foliations.cli as cli

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "classify", broken)
    assert main(["classify", l1111_file]) == 4
    err = capsys.readouterr().err
    assert err == f"internal check failed: {type(exc).__name__}: {exc}\n"
    assert main(["classify", "--dir", str(Path(l1111_file).parent)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "internal check failed" in err
    assert "Traceback" not in err


def test_resolution_past_the_syzygy_bound_exits_4(l1111_file, monkeypatch, capsys):
    # a step past the number of variables contradicts Hilbert's syzygy
    # theorem: an engine bug (exit 4), not a budget that ran out (exit 3)
    import foliations.resolutions as resolutions

    real = resolutions.minimal_syzygies
    steps = []

    def endless(gens, ring, marks):
        # every step hands on two more syzygies than it found, so that no
        # step has as many generators as the rank it is told to generate: the
        # rank stop never applies, and the loop runs into the bound
        kept, syzygies, basis, leads = real(gens, ring, marks)
        fake = (ring.variable(0),) + (ring.zero(),) * (len(kept) - 1)
        steps.append(len(gens))
        return kept, syzygies + [fake, fake], basis, leads

    monkeypatch.setattr(resolutions, "minimal_syzygies", endless)
    assert main(["classify", l1111_file]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: InternalInconsistency: ")
    assert "Hilbert syzygy bound" in err
    assert steps == [4, 5, 2, 2]  # steps 0-3 ran, step 4 is past the bound
    assert main(["classify", "--dir", str(Path(l1111_file).parent)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Hilbert syzygy bound" in err


def test_witness_with_another_singular_ideal_exits_4(l1111_file, monkeypatch, capsys):
    # a member off the degenerate locus spans the base's forms: a witness that
    # does not is an engine bug, not a verdict
    import foliations.determine as determine

    monkeypatch.setattr(determine, "_same_span", lambda F, G: False)
    assert main(["determine", l1111_file]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: InternalInconsistency: the member ")
    assert "another singular ideal" in err


def test_classify_directory(tmp_path, capsys):
    for name, weights in [("a", "1,1,1,-3"), ("b", "1,-1,1,-1")]:
        assert main([
            "make", "logarithmic", "--factors", "z0,z1,z2,z3",
            "--weights", weights, "-o", str(tmp_path / f"{name}.form"),
        ]) == 0
    capsys.readouterr()
    assert main(["classify", "--dir", str(tmp_path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 2 and all(o["verdicts"]["split"] for o in out)


def test_classify_refuses_a_file_and_a_directory_together(l1111_file, capsys):
    # neither is dropped in silence: the pair is refused as a missing input is
    directory = str(Path(l1111_file).parent)
    assert main(["classify", l1111_file, "--dir", directory]) == 1
    captured = capsys.readouterr()
    assert captured.err == "classify takes a file or --dir, not both\n" and captured.out == ""
    assert main(["classify"]) == 1
    assert capsys.readouterr().err == "classify needs a file or --dir\n"


def test_classify_directory_reports_every_file_past_unreadable_ones(tmp_path, capsys):
    # a file that is not UTF-8 and a directory named like a form each fail
    # with exit 1 on stderr, as ``classify <file>`` does; the good file is
    # still classified
    assert main([
        "make", "logarithmic", "--factors", "z0,z1,z2,z3",
        "--weights", "1,1,1,-3", "-o", str(tmp_path / "a.form"),
    ]) == 0
    (tmp_path / "b.form").write_bytes(b"ring z0 z1 z2 z3\nform \xff dz0\n")
    (tmp_path / "c.form").mkdir()
    capsys.readouterr()
    for bad in ("b.form", "c.form"):
        assert main(["classify", str(tmp_path / bad)]) == 1
    capsys.readouterr()
    assert main(["classify", "--dir", str(tmp_path), "--json"]) == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert [o["input"] for o in out] == [str(tmp_path / "a.form")]
    assert out[0]["verdicts"]["split"] is True
    err = captured.err.splitlines()
    assert len(err) == 2
    assert err[0].startswith(f"{tmp_path / 'b.form'}: error: ") and "utf-8" in err[0]
    assert err[1].startswith(f"{tmp_path / 'c.form'}: io error: ")
    assert "Traceback" not in captured.err


def test_classify_directory_budget_exhausted_exits_3(l1111_file, capsys):
    # the same exit code as ``classify <file>`` for the same failure
    assert main(["classify", l1111_file, "--budget", "1"]) == 3
    capsys.readouterr()
    assert main(["classify", "--dir", str(Path(l1111_file).parent), "--budget", "1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "StepBudgetExceeded" in err


def test_budget_bounds_the_whole_command_and_each_file_with_dir(l1111_file, capsys):
    # classify L112 takes 8 S-pairs over its loop runs (at most 7 in one),
    # L1111 3: one budget of 8 for both files would run out
    directory = Path(l1111_file).parent
    l112 = str(directory / "l112.form")
    make = ["make", "logarithmic", "--factors", "z0,z1,z0^2+z1^2+z2^2+z3^2", "--weights", "1,1,-1"]
    assert main(make + ["-o", l112]) == 0
    capsys.readouterr()
    assert main(["classify", l112, "--budget", "7"]) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: StepBudgetExceeded: syzygy pair budget 7 exhausted\n"
    )
    # nothing of the spent budget is left for the next command
    assert main(["classify", l112]) == 0
    assert main(["classify", l112, "--budget", "8"]) == 0
    capsys.readouterr()
    assert main(["classify", "--dir", str(directory), "--budget", "8", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2


def test_pullback_make(tmp_path, capsys):
    plane = tmp_path / "plane.form"
    plane.write_text("ring z0 z1 z2\nform (z1) dz0 - (z0) dz1\n")
    out = tmp_path / "pb.form"
    assert main(["make", "pullback", "--plane", str(plane), "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["make", "logarithmic", "--weights", "1,-1"], "--factors"),
        (["make", "logarithmic", "--factors", "z0,z1"], "--weights"),
        (["make", "pullback"], "--plane"),
    ],
    ids=["no-factors", "no-weights", "no-plane"],
)
def test_make_names_a_missing_input_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.form"
    assert main(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out.exists()


def test_factor_errors_give_the_column_and_the_factor(tmp_path, capsys):
    out = tmp_path / "x.form"
    for factors, message in [
        ("z0,z1 z2,z3", "1:7: trailing input 'z2' in factor 2"),
        ("z0, z1 + $z2,z3", "1:10: unexpected character '$' in factor 2"),
        ("z0,z1,z2,z9", "1:10: variable z9 outside the ring in factor 4"),
        ("z0,z1,,z3", "1:7: unexpected token '' in factor 3"),
    ]:
        argv = ["make", "logarithmic", "--factors", factors, "--weights", "1,1,1,-3"]
        assert main(argv + ["-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_a_weight_with_a_zero_denominator_is_named(tmp_path, capsys):
    out = tmp_path / "x.form"
    argv = ["make", "logarithmic", "--factors", "z0,z1", "--weights", "1, 1/0", "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: zero denominator in weight 2 '1/0'\n"
    assert not out.exists()


def test_a_weight_that_is_not_a_rational_is_named(tmp_path, capsys):
    out = tmp_path / "x.form"
    for weights, message in [("1,x", "bad weight 2 'x'"), (" 1/2 ,, 3", "bad weight 2 ''")]:
        argv = ["make", "logarithmic", "--factors", "z0,z1", "--weights", weights, "-o", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_a_negative_budget_is_an_error_and_zero_runs_out(l1111_file, capsys):
    assert main(["classify", l1111_file, "--budget", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: pair budget -1 is negative\n" and captured.out == ""
    assert main(["classify", "--dir", str(Path(l1111_file).parent), "--budget", "-1"]) == 1
    assert capsys.readouterr().err == "error: pair budget -1 is negative\n"
    assert main(["classify", l1111_file, "--budget", "0"]) == 3
    assert capsys.readouterr().err.startswith("budget exhausted: ")


def test_repeated_calls_share_one_parser_and_no_state(l1111_file, tmp_path, monkeypatch, capsys):
    import foliations.cli as cli
    import foliations.modules as modules

    assert main(["classify", l1111_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["split"] is True
    assert main(["classify", l1111_file]) == 0
    assert capsys.readouterr().out == (
        f"{l1111_file}: degree 2, integrable, saturated, curve, ACM, split (0, 0)\n"
    )

    budgets = []
    real = cli.singular_ideal

    def recording(form):
        # the limit of the pair budget in effect, None outside one
        active = modules._pair_budget.get()
        budgets.append(active and active[1])
        return real(form)

    monkeypatch.setattr(cli, "singular_ideal", recording)
    assert main(["check", l1111_file, "--budget", "5"]) == 0
    assert main(["check", l1111_file]) == 0
    assert budgets == [5, None]
    capsys.readouterr()

    for argv, name in [(["--d", "3"], "exceptional-d3"), ([], "exceptional-d2")]:
        out = tmp_path / f"{name}.form"
        assert main(["make", "exceptional", *argv, "-o", str(out)]) == 0
        assert f"name {name}\n" in out.read_text()
    capsys.readouterr()

    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: foliations")
    assert main(["classify", l1111_file]) == 0
    assert capsys.readouterr().out.endswith("split (0, 0)\n")
    assert cli._build_parser.cache_info().misses == 1


DEEP = "ring z0 z1 z2 z3\nform " + "(" * 5000 + "z1" + ")" * 5000 + " dz0 - (z0) dz1\n"


def test_deeply_nested_input_is_a_parse_error_not_a_traceback(tmp_path, capsys):
    # 5000 parentheses stop at the 101st, column 106 after "form "
    path = tmp_path / "deep.form"
    path.write_text(DEEP)
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: 2:106: parentheses nested deeper than 100\n"
    assert captured.out == ""


def test_a_long_run_of_unary_minus_signs_is_read(tmp_path, capsys):
    # 5000 signs cancel: z1 dz0 - z0 dz1; 5001 negate: -z1 dz0 + z0 dz1
    for count, first in ((5000, "z1"), (5001, "-z1")):
        path = tmp_path / f"signs{count}.form"
        path.write_text(f"ring z0 z1 z2 z3\nform {'-' * count}z1 dz0 {'-' if count % 2 == 0 else '+'} z0 dz1\n")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: valid, degree 0, integrable\n"
        assert parse_form_file(path.read_text()).form.coefficients[0] == parse_polynomial(R, first)


def test_classify_directory_goes_on_past_a_deeply_nested_file(l1111_file, capsys):
    directory = Path(l1111_file).parent
    (directory / "deep.form").write_text(DEEP)
    assert main(["classify", "--dir", str(directory), "--json"]) == 1
    captured = capsys.readouterr()
    assert [o["input"] for o in json.loads(captured.out)] == [l1111_file]
    assert captured.err == f"{directory / 'deep.form'}: error: 2:106: parentheses nested deeper than 100\n"
