import argparse
import ast
import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glassey_lab
from glassey_lab import estimates, lifespan
from glassey_lab.cli import build_parser, main
from glassey_lab.report import read_config


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _no_solve(*args, **kwargs):
    raise AssertionError("evolve was called")


def test_cli_import_leaves_scipy_unloaded():
    # scipy is only for from_file data and the exact step bound; the CLI's startup
    # time and memory should not pay for it
    src = os.path.dirname(os.path.dirname(glassey_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, glassey_lab.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --jobs > 1 starts a pool; every other run should not pay for
    # importing concurrent.futures.process and multiprocessing
    src = os.path.dirname(os.path.dirname(glassey_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, glassey_lab.cli; "
            "sys.exit(bool({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_unknown_flag_exits_2(capsys):
    assert main(["--definitely-not-a-flag"]) == 2


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1), "two"])
def test_jobs_outside_cpu_range_exits_2(tmp_path, monkeypatch, capsys, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    out = str(tmp_path / "jobs")
    code = main(["ineq", "--lemma", "hardy", "--n", "3", "--s", "1.0",
                 "--samples", "4", "--jobs", jobs, "--out", out])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_ineq_writes_marked_csv(tmp_path):
    out = str(tmp_path / "run")
    code = main(["ineq", "--lemma", "hardy", "--n", "3", "--s", "1.0",
                 "--samples", "25", "--seed", "7", "--cells", "600",
                 "--out", out])
    assert code == 0
    lines = read(os.path.join(out, "ineq.csv")).decode().splitlines()
    assert lines[0] == "# glassey-lab v1 ineq"
    assert lines[1].startswith("lemma_id,n,s,")
    assert len(lines) == 2 + 25
    cfg = read_config(os.path.join(out, "config.txt"))
    assert cfg["subcommand"] == "ineq" and cfg["samples"] == "25"


def test_ineq_on_a_short_grid_holds_the_bound(tmp_path, capsys):
    # the draws shrink with r_max below estimates.SAMPLE_R_MAX, so they decay
    # before it; drawn for r_max 12, 14 of these 20 samples breached the bound
    code = main(["ineq", "--lemma", "hardy", "--n", "3", "--s", "0.5", "--samples", "20",
                 "--rmax", "1", "--cells", "400", "--out", str(tmp_path / "run")])
    assert code == 0
    assert "0 violations" in capsys.readouterr().out


def test_config_replay_is_byte_identical(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["ineq", "--lemma", "trace_variant", "--n", "2", "--s", "0.125",
                 "--samples", "20", "--seed", "3", "--cells", "600",
                 "--out", out1]) == 0
    assert main(["--config", os.path.join(out1, "config.txt"),
                 "--out", out2]) == 0
    assert read(os.path.join(out1, "ineq.csv")) == read(os.path.join(out2, "ineq.csv"))


@pytest.mark.parametrize("spelling", [
    ["--config", "{cfg}"], ["--config={cfg}"],
    ["solve", "--config", "{cfg}"], ["solve", "--config={cfg}"],
], ids=["two-tokens", "one-token", "subcommand-two-tokens", "subcommand-one-token"])
def test_config_replays_in_either_spelling(tmp_path, spelling):
    # argparse takes --config=FILE as it takes --config FILE; both replay the
    # recorded run, not the defaults
    first, again = str(tmp_path / "first"), str(tmp_path / "again")
    assert main(["solve", "--t-end", "0.5", "--eps", "2", "--rmax", "12", "--cells", "240",
                 "--out", first]) == 0
    cfg = os.path.join(first, "config.txt")
    assert main([arg.format(cfg=cfg) for arg in spelling] + ["--out", again]) == 0
    for name in ("series.csv", "outcome.csv", "energy_series.txt"):
        assert read(os.path.join(again, name)) == read(os.path.join(first, name))
    assert read_config(os.path.join(again, "config.txt")) == dict(read_config(cfg), out=again)


def test_config_without_a_path_exits_2(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path / "run"), "--config"]) == 2
    assert capsys.readouterr().err == "error: --config needs a file path\n"


def test_solve_subcommand(tmp_path):
    out = str(tmp_path / "run")
    code = main(["solve", "--n", "3", "--p", "1.5", "--a", "1", "--b", "0",
                 "--eps", "5.0", "--assigns", "to_u1", "--rmax", "16",
                 "--cells", "320", "--t-end", "6", "--out", out])
    assert code == 0
    series = read(os.path.join(out, "series.csv")).decode().splitlines()
    assert series[0] == "# glassey-lab v1 solve"
    outcome = read(os.path.join(out, "outcome.csv")).decode().splitlines()
    assert "blew_up" in outcome[2]


def test_precondition_exit_2(tmp_path):
    out = str(tmp_path / "run")
    code = main(["kss", "--variant", "inhom", "--n", "2", "--width", "1.0",
                 "--t-list", "1", "--out", out])
    assert code == 2


def test_invariant_failure_exit_3(tmp_path):
    out = str(tmp_path / "run")
    # the source is on over t in [0, 1]: the ratio at T = 1 reads 5.02, and
    # those at T = 2 and 4 read 6.41 and 6.58, past the 25% band above it
    code = main(["kss", "--variant", "inhom", "--n", "3", "--t-list", "1,2,4", "--out", out])
    assert code == 3


def test_lifespan_subcommand_small(tmp_path):
    out = str(tmp_path / "run")
    # --eps is the documented spelling for the sweep list; --eps-list is the
    # unambiguous long form
    code = main(["lifespan", "--n", "3", "--p", "1.5", "--a", "1", "--b", "0",
                 "--eps", "1.4,2.0,2.8,4.0", "--horizon", "15",
                 "--rmax", "23", "--ladder", "460,920",
                 "--assigns", "split", "--out", out])
    assert code == 0
    fit = read(os.path.join(out, "fit.csv")).decode().splitlines()
    assert fit[0] == "# glassey-lab v1 lifespan"
    assert "power_law" in fit[2] and "consistent" in fit[2]


def test_lifespan_supercritical_writes_sweep_and_no_fit(tmp_path, capsys):
    # above the threshold power no law is predicted, so nothing is fitted
    out = str(tmp_path / "run")
    code = main(["lifespan", "--n", "3", "--p", "2.5", "--eps", "0.5,1", "--horizon", "2",
                 "--rmax", "12", "--ladder", "120,240", "--out", out])
    assert code == 0
    assert "lifespan: regime=supercritical records=2 " in capsys.readouterr().out
    fit = read(os.path.join(out, "fit.csv")).decode().splitlines()
    assert fit == ["# glassey-lab v1 lifespan", ",".join(lifespan.FIT_COLUMNS)]
    sweep = read(os.path.join(out, "sweep.csv")).decode().splitlines()
    assert len(sweep) == 2 + 2


def test_lifespan_at_the_critical_power_writes_one_exponential_fit(tmp_path):
    # the CLI's critical branch: criterion 7 fits the exponential law directly
    out = str(tmp_path / "run")
    assert main(["lifespan", "--n", "3", "--p", "2", "--eps-list", "2.6,3.0,3.5,4.0,5.0",
                 "--horizon", "12", "--rmax", "22", "--ladder", "440,880",
                 "--assigns", "split", "--out", out]) == 0
    with open(os.path.join(out, "fit.csv"), newline="", encoding="utf-8") as fh:
        assert fh.readline() == "# glassey-lab v1 lifespan\n"
        (row,) = csv.DictReader(fh)
    assert list(row) == list(lifespan.FIT_COLUMNS)
    assert row["model"] == "exponential_rate"
    assert row["predicted_slope"] == row["tolerance"] == "nan"
    for column in ("slope", "intercept", "r_squared", "r_squared_alt"):
        assert math.isfinite(float(row[column])), column


def test_lifespan_three_rung_ladder_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(lifespan, "evolve", _no_solve)
    out = str(tmp_path / "run")
    code = main(["lifespan", "--n", "3", "--p", "1.5", "--eps", "1.4,2.0,2.8,4.0",
                 "--horizon", "4", "--rmax", "16", "--ladder", "160,240,320",
                 "--assigns", "split", "--out", out])
    assert code == 2
    assert "ladder needs exactly 2" in capsys.readouterr().err


# a parameter that a run would fail is refused once, before the first
# epsilon, with its own message (not one warning per epsilon and then
# "no records"); --n 20 is past the default lifespan step's bound, a
# fractional cell count is refused, not truncated to a 120-cell rung, and
# data whose support plus the horizon reaches past --rmax fails causality
@pytest.mark.parametrize("flags, message", [
    (["--ladder", "120.9,240"], "ladder cell count 120.9 is not a whole number"),
    (["--horizon", "nan"], "horizon must be finite and > 0, got nan"),
    (["--horizon", "0"], "horizon must be finite and > 0, got 0.0"),
    (["--horizon", "-1"], "horizon must be finite and > 0, got -1.0"),
    (["--cfl", "0.9"], "cfl must lie in (0, 0.75], got 0.9"),
    (["--n", "20"], "cfl 0.5 is at or past the RK4 stability bound 0.447214"),
    (["--horizon", "10", "--rmax", "12"],
     "causality: support 5.62 + t_end 10 + 2.0 exceeds r_max 12"),
    (["--eps-list=-1,2,3,4"], "epsilon must be >= 0, got -1.0"),
], ids=["ladder-fraction", "horizon", "horizon-0", "horizon-negative", "cfl", "n",
        "causality", "epsilon-negative"])
def test_lifespan_run_wide_bad_parameter_exits_2_before_any_epsilon(
        tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.setattr(lifespan, "evolve", _no_solve)
    out = str(tmp_path / "run")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["lifespan", "--n", "3", "--p", "1.5", "--eps-list", "1,2,3,4",
                     "--horizon", "4", "--rmax", "16", "--ladder", "160,320",
                     *flags, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert f"precondition: {message}" in err and "Traceback" not in err
    assert os.listdir(out) == ["config.txt"]


def test_from_file_non_numeric_token_exits_2(tmp_path, capsys):
    path = tmp_path / "field.txt"
    path.write_text("# radial-field v1\n0.0 1.0\n"
                    "np.float64(0.5) np.float64(0.7)\n1.0 0.3\n1.5 0.0\n")
    code = main(["solve", "--profile", "from_file", "--data-file", str(path),
                 "--rmax", "16", "--cells", "320", "--t-end", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "row 3" in err and "Traceback" not in err


@pytest.mark.parametrize("radius", ["inf", "nan", "3e308"])
def test_from_file_non_finite_radius_exits_2(tmp_path, capsys, radius):
    path = tmp_path / "field.txt"
    path.write_text(f"# radial-field v1\n0.0 1.0\n0.5 0.7\n1.0 0.3\n{radius} 0.0\n")
    code = main(["solve", "--profile", "from_file", "--data-file", str(path),
                 "--rmax", "12", "--cells", "240", "--t-end", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{path} radii contains NaN or infinite entries" in err and "Traceback" not in err


def _unreadable_data_file(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "absent.txt"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "field.txt"
    path.write_bytes(b"# radial-field v1\n0.0 \xff\xfe\n")
    return path


# a data file that cannot be read is refused once, before any solve; a
# lifespan sweep does not warn once per epsilon first
@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
@pytest.mark.parametrize("argv", [
    ["solve", "--t-end", "1", "--cells", "240"],
    ["lifespan", "--p", "1.5", "--eps-list", "1,2,3,4", "--horizon", "4",
     "--ladder", "120,240"],
], ids=["solve", "lifespan"])
def test_unreadable_data_file_exits_2(tmp_path, monkeypatch, capsys, argv, kind):
    monkeypatch.setattr(lifespan, "evolve", _no_solve)
    path = _unreadable_data_file(tmp_path, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--profile", "from_file", "--data-file", str(path),
                            "--rmax", "12", "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count(f"precondition: {path}: cannot read the data file") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag, token", [
    (["kss", "--t-list", "1,abc"], "--t-list", "abc"),
    (["lifespan", "--eps-list", "1,x"], "--eps-list", "x"),
    (["lifespan", "--ladder", "100,x"], "--ladder", "x"),
    (["lifespan", "--ladder", "100,inf"], "--ladder", "inf"),
], ids=["t-list", "eps-list", "ladder", "ladder-inf"])
def test_non_numeric_list_token_exits_2(tmp_path, capsys, argv, flag, token):
    code = main(argv + ["--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"precondition: {flag}: {token!r} is not a finite number" in err
    assert "Traceback" not in err


# an infinite tolerance would stop the iteration after one step as converged
@pytest.mark.parametrize("argv, message", [
    (["picard", "--rmax", "12", "--cells", "200", "--t-end", "2", "--tol", "inf"],
     "tol must be finite and positive, got inf"),
], ids=["picard-inf"])
def test_non_finite_tolerance_exits_2(tmp_path, capsys, argv, message):
    code = main(argv + ["--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"precondition: {message}" in err and "Traceback" not in err


def test_ineq_negative_seed_exits_2(tmp_path, monkeypatch, capsys):
    def no_sample(args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(estimates, "_one_sample", no_sample)
    code = main(["ineq", "--lemma", "hardy", "--n", "3", "--s", "0.5", "--seed", "-1",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "precondition: seed must be >= 0, got -1" in err and "Traceback" not in err


# an empty list ended --variant inhom in kss_band_ok's IndexError (exit 1)
@pytest.mark.parametrize("variant", ["hom", "inhom"])
@pytest.mark.parametrize("t_list", ["", ","])
def test_kss_empty_t_list_exits_2_before_any_solve(tmp_path, monkeypatch, capsys, variant,
                                                   t_list):
    monkeypatch.setattr(estimates, "evolve", _no_solve)
    code = main(["kss", "--variant", variant, "--t-list", t_list, "--rmax", "24",
                 "--cells", "480", "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "precondition: --t-list names no horizon" in err and "Traceback" not in err


# kss --variant inhom drives its solve with a source of amplitude --eps on the
# bump --center, --width; a bad value was solved on, or refused as "support 0"
@pytest.mark.parametrize("flag, value, message", [
    ("--eps", "nan", "epsilon must be >= 0, got nan"),
    ("--eps", "inf", "epsilon must be >= 0, got inf"),
    ("--eps", "-1", "epsilon must be >= 0, got -1.0"),
    ("--center", "-3", "center must be >= 0, got -3.0"),
    ("--center", "nan", "center must be >= 0, got nan"),
    ("--width", "nan", "width must be positive, got nan"),
], ids=["eps-nan", "eps-inf", "eps-negative", "center-negative", "center-nan", "width-nan"])
def test_kss_inhom_bad_source_exits_2_before_any_solve(tmp_path, monkeypatch, capsys, flag,
                                                       value, message):
    monkeypatch.setattr(estimates, "evolve", _no_solve)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["kss", "--variant", "inhom", "--t-list", "1,2", f"{flag}={value}",
                     "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"precondition: {message}" in err.splitlines() and "Traceback" not in err
    assert [str(w.message) for w in caught] == []


# they shape initial data, and the source solve starts from zero data
@pytest.mark.parametrize("flag, value", [
    ("--profile", "smooth_bump"), ("--profile", "from_file"), ("--assigns", "split"),
    ("--assigns", "to_u1"), ("--data-file", "field.txt"),
])
def test_kss_inhom_refuses_the_data_flags(tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.setattr(estimates, "evolve", _no_solve)
    code = main(["kss", "--variant", "inhom", "--t-list", "1,2", flag, value,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert (f"precondition: kss --variant inhom solves from zero data and takes no {flag}"
            in err.splitlines())
    assert "Traceback" not in err


def test_kss_inhom_config_replays(tmp_path):
    # the config echoes the data flags at their defaults, which inhom takes
    out = str(tmp_path / "run")
    assert main(["kss", "--variant", "inhom", "--n", "3", "--rmax", "12", "--cells", "120",
                 "--t-list", "2,4", "--out", out]) == 0
    again = str(tmp_path / "again")
    assert main(["--config", os.path.join(out, "config.txt"), "--out", again]) == 0
    assert read(os.path.join(again, "kss.csv")) == read(os.path.join(out, "kss.csv"))


@pytest.mark.parametrize("variant", ["hom", "inhom"])
def test_kss_runs_at_its_defaults(tmp_path, variant):
    # the default --t-list must fit the default --rmax grid, or the bare
    # command exits 2 on causality, and must start past the source's window
    # [0, 1], or inhom breaches the band
    assert main(["kss", "--variant", variant, "--n", "3", "--out", str(tmp_path / "run")]) == 0


def _accepted_flags(subcommand):
    """Every flag the subcommand's parser takes, --help, --out and --config
    aside."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parser = subparsers.choices[subcommand]
    return {opt for a in parser._actions for opt in a.option_strings} - {
        "-h", "--help", "--out", "--config"}


# each kss flag off its default
_KSS_MOVES = {
    "--n": "4", "--rmax": "14", "--cells": "140", "--cfl": "0.25", "--stride": "4",
    "--profile": "smooth_bump", "--eps": "2", "--width": "1.5", "--center": "0.5",
    "--assigns": "to_u1", "--delta": "0.35", "--delta-prime": "0.1", "--t-list": "1,3",
}


@pytest.mark.parametrize("variant", ["hom", "inhom"])
def test_every_kss_flag_changes_the_run_or_exits_2(tmp_path, variant):
    # a flag that a variant parses and ignores echoes into config.txt while
    # the run writes what it wrote without it
    field = tmp_path / "field.txt"
    field.write_text("# radial-field v1\n0.0 1.0\n0.5 0.5\n1.0 0.0\n2.0 0.0\n")
    moves = dict(_KSS_MOVES, **{"--data-file": str(field)})
    assert set(moves) | {"--variant"} == _accepted_flags("kss")

    def run(extra, name):
        out = str(tmp_path / name)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["kss", "--variant", variant, "--n", "3", "--rmax", "12",
                         "--cells", "120", "--t-list", "1,2"] + extra + ["--out", out])
        path = os.path.join(out, "kss.csv")
        return code, read(path) if os.path.exists(path) else None

    base = run([], "base")
    assert base[0] in (0, 3) and base[1] is not None
    moved = {flag: run([f"{flag}={value}"], flag.strip("-")) for flag, value in moves.items()}
    assert [flag for flag, result in moved.items() if result == base] == []
    assert [flag for flag, (code, _) in moved.items() if code not in (0, 2, 3)] == []


# a data-file token: any double's repr (nan, inf, 1.7976931348623157e+308,
# subnormals), a few spelled-out edge values, or junk
_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "3e308", "-1e308", "1e-320", "0x10", "1,5", "junk"]),
)


@st.composite
def _field_rows(draw):
    """Up to 7 'r value' rows of a well-formed file (r = 0, 0.5, ...; values
    e^-j), with at most two of its tokens replaced by drawn ones."""
    num_rows = draw(st.integers(0, 7))
    tokens = [t for j in range(num_rows) for t in (repr(0.5 * j), repr(math.exp(-j)))]
    if tokens:
        slots = st.integers(0, len(tokens) - 1)
        for k in draw(st.lists(slots, max_size=2, unique=True)):
            tokens[k] = draw(_TOKENS)
    return [f"{r} {v}" for r, v in zip(tokens[::2], tokens[1::2])]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(rows=_field_rows())
# a negative first radius, a radius gap and a slope past the double range
@example(rows=["-1e308 1.0", "0.5 0.4", "1.0 0.1", "1.5 0.0"])
@example(rows=["0.0 1.0", "0.5 0.4", "1.0 0.1", "1.7976931348623157e+308 0.0"])
@example(rows=["0.0 1.0", "0.5 -1e308", "1.0 0.1", "1.5 0.0"])
def test_from_file_contents_never_exit_1(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(["# radial-field v1"] + rows) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["solve", "--profile", "from_file", "--data-file", path,
                         "--rmax", "4", "--cells", "16", "--t-end", "0.05",
                         "--out", os.path.join(tmp, "run")])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _exit_code(argv):
    """main(argv) with its output captured into a temporary --out; the exit
    code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", os.path.join(tmp, "run")])
    return code, err.getvalue()


# ineq flags as a user might type them: any lemma, small or bad dimensions,
# powers in and out of range, negative seeds and non-finite values
def test_ineq_flags_never_exit_1(monkeypatch):
    # the examples that get past the parser to the suite
    suites = []
    run_ineq_suite = estimates.run_ineq_suite

    def counting(*args, **kwargs):
        suites.append(args)
        return run_ineq_suite(*args, **kwargs)

    monkeypatch.setattr(estimates, "run_ineq_suite", counting)

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(lemma=st.sampled_from(["hardy", "trace", "trace_variant"]),
           n=st.integers(1, 6),
           s=st.one_of(st.floats(0.5, 0.95),
                       st.sampled_from([0.0, 1.0, -0.5, 1.5, math.nan, math.inf])),
           seed=st.integers(-3, 2**40),
           samples=st.integers(1, 3),
           cells=st.integers(16, 128))
    @example(lemma="hardy", n=3, s=0.5, seed=-1, samples=3, cells=64)
    def never_exit_1(lemma, n, s, seed, samples, cells):
        code, err = _exit_code(["ineq", "--lemma", lemma, "--n", str(n), "--s", repr(s),
                                "--seed", str(seed), "--samples", str(samples),
                                "--cells", str(cells), "--rmax", "12"])
        assert code in (0, 2, 3), err
        assert "Traceback" not in err

    never_exit_1()
    assert len(suites) >= 60


def test_solve_huge_data_reports_inf_energy_without_warnings(tmp_path, capsys):
    # the energy of 1e300 data exceeds the double range: it is written as
    # inf, and neither the solve nor the energy series warns; at 1e308 the
    # one-sided origin row of u_r is -inf + inf as well
    for eps in ("1e300", "1e308"):
        out = str(tmp_path / eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--eps", eps, "--p", "1.5", "--rmax", "12",
                         "--cells", "240", "--t-end", "2", "--out", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        outcome = read(os.path.join(out, "outcome.csv")).decode().splitlines()
        assert outcome[2].startswith("blew_up,")
        series = read(os.path.join(out, "series.csv")).decode().splitlines()
        assert series[2].split(",")[1] == "inf"


@pytest.mark.parametrize("argv", [
    ["ineq", "--lemma", "hardy", "--n", "400", "--s", "0.5", "--samples", "3"],
    ["norms", "--n", "400", "--eps", "1", "--rmax", "18", "--cells", "450", "--t-end", "2"],
    ["solve", "--n", "340", "--a", "0", "--eps", "1", "--rmax", "12", "--cells", "240",
     "--t-end", "0.05"],
], ids=["ineq", "norms", "solve"])
def test_dimension_past_the_double_range_exits_2(tmp_path, capsys, argv):
    # the quadrature weight r^(n-1) overflows on these grids; it used to end
    # in NaN energies (solve) or in Gamma(n/2) overflowing in the sphere area
    # (ineq, norms), a traceback
    out = str(tmp_path / "run")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "precondition: weight r^" in err and "Traceback" not in err
    assert not [name for name in os.listdir(out) if name.endswith(".csv")]


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "2", "--cells", "16", "--t-end", "1"],
    ["lifespan", "--n", "2", "--ladder", "16,32", "--horizon", "1", "--eps-list", "1"],
], ids=["solve", "lifespan"])
def test_grid_spacing_past_the_double_range_exits_2(tmp_path, capsys, argv):
    # the stencil weights' dr^2 overflowed: an OverflowError, exit 1
    assert main(argv + ["--rmax", "1e200", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "precondition: grid spacing r_max / num_cells = 6.25e+198 is past 1e150" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, spacing", [
    (["solve", "--profile", "smooth_bump", "--width", "5e-324", "--rmax", "1e-323"], "0"),
    (["ineq", "--lemma", "hardy", "--n", "3", "--s", "0.5", "--samples", "2",
      "--rmax", "1e-323"], "0"),
    (["ineq", "--lemma", "hardy", "--n", "3", "--s", "0.5", "--samples", "2",
      "--rmax", "1e-170"], "6.25e-172"),
], ids=["solve-zero", "ineq-zero", "ineq-underflow"])
def test_grid_spacing_below_the_double_range_exits_2(tmp_path, capsys, argv, spacing):
    # a zero dr was a ZeroDivisionError (exit 1); a dr whose square underflows
    # ended in a NaN ratio that named neither the grid nor its spacing
    assert main(argv + ["--cells", "16", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"precondition: grid spacing r_max / num_cells = {spacing} is below 1e-150\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    ("solve --profile smooth_bump --center 11 --width 1.5 --rmax 12 --cells 64 --t-end 1",
     "bump support reaches the outer boundary"),
    ("norms --width 5 --rmax 12 --cells 64 --t-end 1",
     "gaussian tail 0.00315 at r_max exceeds 1e-16 of peak"),
    ("kss --eps 0 --rmax 12 --cells 64 --t-list 1", "kss_hom_check: zero data"),
    ("kss --variant inhom --eps 0 --t-list 1", "kss_inhom_check: zero forcing"),
    ("lifespan --n 3 --p 1.5 --eps-list 1,2 --horizon 1 --rmax 12 --ladder 64,128",
     "2/2 records censored"),
    ("solve --t-end 1e-13 --rmax 12 --cells 64", "dt = 2e-14 below 1e-12"),
], ids=["bump-support", "gaussian-tail", "kss-zero-data", "kss-zero-forcing",
        "all-censored", "step-underflow"])
def test_refusal_is_one_precondition_line(tmp_path, capsys, argv, message):
    assert main(argv.split() + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"precondition: {message}" in err.splitlines()
    assert "Traceback" not in err


_STEPS_PAST_RANGE = "t_end 1e+308 takes t_end / (cfl * dr) = inf steps, past the double range"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--t-end", "1e308", "--rmax", "12", "--cells", "64"], _STEPS_PAST_RANGE),
    (["norms", "--t-end", "1e308", "--rmax", "12", "--cells", "64"], _STEPS_PAST_RANGE),
    (["picard", "--t-end", "1e308", "--rmax", "12", "--cells", "64"], _STEPS_PAST_RANGE),
    (["kss", "--t-list", "1e308", "--rmax", "12", "--cells", "64"], _STEPS_PAST_RANGE),
    (["lifespan", "--n", "3", "--p", "1.5", "--eps-list", "1,2,3,4", "--horizon", "1e308",
      "--rmax", "12", "--ladder", "120,240"], _STEPS_PAST_RANGE),
    (["kss", "--variant", "inhom", "--t-list", "1e308"], _STEPS_PAST_RANGE),
], ids=["solve", "norms", "picard", "kss-hom", "lifespan", "kss-inhom"])
def test_horizon_past_the_double_range_exits_2(tmp_path, capsys, argv, message):
    # the step count t_end / (cfl * dr) was inf, and math.ceil raised
    # OverflowError: exit 1
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"precondition: {message}" in err and "Traceback" not in err
    assert not [name for name in os.listdir(out) if name.endswith(".csv")]


@pytest.mark.parametrize("argv, count", [
    (["solve", "--cells", "10000000000000000000000", "--rmax", "12"], "1e+22"),
    (["ineq", "--lemma", "hardy", "--s", "1", "--cells", "10000000000000000000000"], "1e+22"),
    (["lifespan", "--ladder", "1e22,2e22"], "1e+22"),
    (["kss", "--variant", "inhom", "--cells", "10000000000000000000000"], "1e+22"),
], ids=["solve", "ineq", "lifespan", "kss-inhom"])
def test_cell_count_past_numpy_index_range_exits_2(tmp_path, capsys, argv, count):
    # numpy refused the node array: "Maximum allowed size exceeded", exit 1
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"precondition: num_cells {count} is past the node arrays numpy can index" in err
    assert "Traceback" not in err
    assert not [name for name in os.listdir(out) if name.endswith(".csv")]


# at least one flag per subcommand that its runner never reads; norms --a
# must not be taken as a prefix of --assigns
@pytest.mark.parametrize("argv, flag", [
    (["solve", "--rmax", "12", "--cells", "240", "--t-end", "0.5", "--seed", "1"], "--seed"),
    (["ineq", "--lemma", "hardy", "--n", "3", "--s", "1.0", "--samples", "4",
      "--cells", "600", "--p", "2"], "--p"),
    # the slack of every bound is estimates.TOL
    (["ineq", "--lemma", "hardy", "--n", "3", "--s", "1.0", "--samples", "4",
      "--cells", "600", "--tol", "0.01"], "--tol"),
    (["kss", "--variant", "hom", "--n", "3", "--t-list", "1,2", "--rmax", "24",
      "--cells", "480", "--jobs", "1"], "--jobs"),
    (["kss", "--variant", "hom", "--n", "3", "--t-list", "1,2", "--rmax", "24",
      "--cells", "480", "--b", "1"], "--b"),
    # every kss run is judged by the band estimates.KSS_BAND
    (["kss", "--variant", "hom", "--n", "3", "--t-list", "1,2", "--rmax", "24",
      "--cells", "480", "--band", "0.5"], "--band"),
    (["picard", "--n", "3", "--p", "2.5", "--eps", "0.05", "--assigns", "split",
      "--rmax", "10", "--cells", "160", "--t-end", "2", "--seed", "9"], "--seed"),
    (["lifespan", "--n", "3", "--p", "1.5", "--eps", "2.8,4.0", "--horizon", "6",
      "--rmax", "12", "--ladder", "120,240", "--seed", "1"], "--seed"),
    (["lifespan", "--n", "3", "--p", "1.5", "--eps", "2.8,4.0", "--horizon", "6",
      "--rmax", "12", "--ladder", "120,240", "--stride", "20"], "--stride"),
    (["lifespan", "--n", "3", "--p", "1.5", "--eps", "2.8,4.0", "--horizon", "6",
      "--rmax", "12", "--cells", "3840"], "--cells"),
    (["norms", "--n", "3", "--eps", "1.0", "--rmax", "18", "--cells", "450",
      "--t-end", "4", "--a", "1"], "--a"),
    (["norms", "--n", "3", "--eps", "1.0", "--rmax", "18", "--cells", "450",
      "--t-end", "4", "--b", "1"], "--b"),
    # --a 0 --b 0 is the linear solve
    (["solve", "--rmax", "12", "--cells", "240", "--t-end", "0.5", "--linear"], "--linear"),
    # a config.txt written before the flag was dropped names it as a key
    (["--config", "{config}"], "--seed"),
    (["--config", "{linear_config}"], "--linear"),
    # a retired flag replays only at the value the code now always applies
    (["--config", "{tol_config}"], "--tol=0.01"),
    (["--config", "{band_config}"], "--band=0.5"),
    (["--config", "{lifespan_config}"], "--stride"),
    (["--config", "{lifespan_cells_config}"], "--cells"),
], ids=["solve-seed", "ineq-p", "ineq-tol", "kss-jobs", "kss-b", "kss-band", "picard-seed",
        "lifespan-seed", "lifespan-stride", "lifespan-cells", "norms-a", "norms-b",
        "solve-linear", "solve-config-seed", "solve-config-linear", "ineq-config-tol",
        "kss-config-band", "lifespan-config-stride", "lifespan-config-cells"])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv, flag):
    configs = {
        "{config}": "subcommand = solve\nrmax = 12.0\ncells = 240\nt_end = 0.5\nseed = 7\n",
        "{linear_config}": "subcommand = solve\nrmax = 12.0\ncells = 240\nt_end = 0.5\n"
                           "linear = true\n",
        "{tol_config}": "subcommand = ineq\nlemma = hardy\ns = 1.0\nsamples = 4\n"
                        "tol = 0.01\n",
        "{band_config}": "subcommand = kss\nvariant = hom\nt_list = 1,2\nrmax = 24.0\n"
                         "cells = 480\nband = 0.5\n",
        "{lifespan_config}": "subcommand = lifespan\neps_list = 2.8,4.0\nhorizon = 6.0\n"
                             "rmax = 12.0\nladder = 120,240\nstride = 20\n",
        # the default ladder was cells/2,cells, so an old config has an empty one
        "{lifespan_cells_config}": "subcommand = lifespan\ncells = 3840\nladder = \n",
    }
    for key, text in configs.items():
        path = tmp_path / (key.strip("{}") + ".txt")
        path.write_text("# glassey-lab v1 config\n" + text)
        argv = [str(path) if arg == key else arg for arg in argv]
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err
    assert not os.path.exists(out)


def test_diverging_picard_keeps_its_trace(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["picard", "--n", "3", "--p", "2.5", "--eps", "6", "--assigns", "split",
                 "--rmax", "14", "--cells", "400", "--t-end", "6", "--out", out])
    assert code == 2
    assert "iterate exploded" in capsys.readouterr().err
    rows = read(os.path.join(out, "picard_trace.csv")).decode().splitlines()
    assert rows[1] == "iteration,rho_step,e1,e2,le1,le2"
    assert [r.split(",")[0] for r in rows[2:]] == ["1", "2"]
    series = read(os.path.join(out, "rho_series.txt")).decode().splitlines()
    assert [line.split()[0] for line in series[1:]] == ["1", "2"]


def test_norms_subcommand(tmp_path):
    out = str(tmp_path / "run")
    code = main(["norms", "--n", "3", "--eps", "1.0", "--rmax", "18",
                 "--cells", "450", "--t-end", "4", "--out", out])
    assert code == 0
    rows = read(os.path.join(out, "norms.csv")).decode().splitlines()
    names = [r.split(",")[0] for r in rows[2:]]
    assert {"p_c", "s_c", "lambda1", "le1", "le1_deriv"} <= set(names)


def test_picard_subcommand(tmp_path):
    out = str(tmp_path / "run")
    code = main(["picard", "--n", "3", "--p", "2.5", "--a", "1", "--b", "0",
                 "--eps", "0.05", "--assigns", "split", "--rmax", "14",
                 "--cells", "350", "--t-end", "4", "--out", out])
    assert code == 0
    rows = read(os.path.join(out, "picard_trace.csv")).decode().splitlines()
    assert rows[1] == "iteration,rho_step,e1,e2,le1,le2"
    assert len(rows) >= 3


def test_picard_dimension_past_its_step_bound_exits_2(tmp_path, capsys):
    # the n = 16 stencil bounds the step at 0.49999999, below picard's
    # default cfl 0.5; the message names the flag that takes a smaller one
    out = str(tmp_path / "run")
    code = main(["picard", "--n", "16", "--p", "1.05", "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "stability bound" in err and "--cfl" in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "picard_trace.csv"))


def test_picard_whose_step_metric_grows_tenfold_exits_2_with_its_trace(tmp_path, capsys):
    # the growth rule: rho_step at least 10 times its value two corrections back
    out = str(tmp_path / "run")
    assert main(["picard", "--n", "3", "--p", "2", "--eps", "5", "--assigns", "split",
                 "--rmax", "12", "--cells", "240", "--t-end", "4", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"precondition: step metric grew from \S+ to \S+ over two corrections",
                        err[0])
    trace = read(os.path.join(out, "picard_trace.csv")).decode().splitlines()
    assert [row.split(",")[0] for row in trace[2:]] == ["1", "2", "3", "4"]
    rhos = [float(line.split()[1])
            for line in read(os.path.join(out, "rho_series.txt")).decode().splitlines()[1:]]
    assert len(rhos) == 4 and rhos[3] > 10.0 * rhos[1]


# a picard run's config.txt and trace as the CLI wrote them at cfl 0.25 with
# stride 10, picard's default step before it moved to cfl 0.5 with stride 5
OLD_STEP_PICARD_CONFIG = """\
# glassey-lab v1 config
a = 1.0
assigns = split
b = 0.0
cells = 160
center = 0.0
cfl = 0.25
data_file = 
eps = 0.05
max_iters = 12
n = 3
p = 2.5
profile = gaussian
rmax = 10.0
stride = 10
subcommand = picard
t_end = 2.0
tol = 1e-08
width = 1.0
"""
OLD_STEP_PICARD_TRACE = """\
# glassey-lab v1 picard
iteration,rho_step,e1,e2,le1,le2
1,0.005049166724335083,0.1402666696029404,0.29691895063163154,1.089316033646899,1.4351869936800368
2,4.046544685528326e-05,0.14026667111105803,0.29691895063163154,1.0893244096227128,1.435217242430526
3,3.11491847823698e-07,0.14026667111137198,0.29691895063163154,1.08932434299492,1.4352170215652842
4,2.166359718120591e-09,0.1402666711113721,0.29691895063163154,1.08932434346158,1.4352170230126975
5,1.3689251815450407e-11,0.1402666711113721,0.29691895063163154,1.089324343458645,1.4352170230040475
"""


def test_picard_config_at_the_old_step_replays_its_trace(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text(OLD_STEP_PICARD_CONFIG)
    out = str(tmp_path / "run")
    assert main(["--config", str(config), "--out", out]) == 0
    assert read(os.path.join(out, "picard_trace.csv")).decode() == OLD_STEP_PICARD_TRACE
    echoed = read_config(os.path.join(out, "config.txt"))
    assert (echoed["cfl"], echoed["stride"]) == ("0.25", "10")


def test_config_with_a_negative_value_replays(tmp_path):
    # a value that starts with '-' is folded as --a=-1e-05, one token, and
    # not taken for a flag of its own
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["solve", "--a", "-0.00001", "--rmax", "12", "--cells", "240",
                 "--t-end", "0.5", "--out", out1]) == 0
    assert read_config(os.path.join(out1, "config.txt"))["a"] == "-1e-05"
    assert main(["--config", os.path.join(out1, "config.txt"), "--out", out2]) == 0
    for name in ("series.csv", "outcome.csv"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


@pytest.mark.parametrize("out", ["true", "false"])
def test_config_replays_into_the_out_it_recorded(tmp_path, monkeypatch, out):
    # a recorded value is always folded as the flag's value, never as a bare
    # switch, so --out true and --out false name their directories
    monkeypatch.chdir(tmp_path)
    assert main(["ineq", "--lemma", "hardy", "--s", "0.5", "--samples", "3", "--cells", "120",
                 "--out", out]) == 0
    csv_path = os.path.join(out, "ineq.csv")
    first = read(csv_path)
    os.remove(csv_path)
    assert main(["--config", os.path.join(out, "config.txt")]) == 0
    assert read(csv_path) == first
    assert sorted(os.listdir(tmp_path)) == [out]


@pytest.mark.parametrize("out", ["", "a_file"], ids=["empty", "existing-file"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("kept\n")
    code = main(["ineq", "--lemma", "hardy", "--s", "0.5", "--samples", "3", "--cells", "120",
                 "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert f"precondition: --out {out!r} cannot be made a directory" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["a_file"]
    assert (tmp_path / "a_file").read_text() == "kept\n"


# an ineq config.txt and CSV as the CLI wrote them when ineq took --tol
OLD_TOL_INEQ_CONFIG = """\
# glassey-lab v1 config
cells = 120
jobs = 1
lemma = hardy
n = 3
out = pa
rmax = 12.0
s = 0.75
samples = 3
seed = 5
subcommand = ineq
tol = 0.001
"""
OLD_TOL_INEQ_CSV = """\
# glassey-lab v1 ineq
lemma_id,n,s,seed,ratio,bound,violation
hardy,3,0.75,5,0.21181033077338202,1.2408064788027995,false
hardy,3,0.75,6,0.3516525561493061,1.2408064788027995,false
hardy,3,0.75,7,0.27148627298554634,1.2408064788027995,false
"""


def test_ineq_config_with_the_retired_tol_replays_its_csv(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text(OLD_TOL_INEQ_CONFIG)
    out = str(tmp_path / "run")
    assert main(["--config", str(config), "--out", out]) == 0
    assert read(os.path.join(out, "ineq.csv")).decode() == OLD_TOL_INEQ_CSV
    assert "tol" not in read_config(os.path.join(out, "config.txt"))


def test_kss_config_with_the_retired_band_replays_its_csv(tmp_path):
    # a config.txt written while kss took --band records it at its default
    out = str(tmp_path / "run")
    assert main(["kss", "--variant", "hom", "--n", "3", "--rmax", "12", "--cells", "120",
                 "--t-list", "2,4", "--out", out]) == 0
    config = tmp_path / "config.txt"
    config.write_text(read(os.path.join(out, "config.txt")).decode() + "band = 0.25\n")
    again = str(tmp_path / "again")
    assert main(["--config", str(config), "--out", again]) == 0
    assert read(os.path.join(again, "kss.csv")) == read(os.path.join(out, "kss.csv"))
    assert "band" not in read_config(os.path.join(again, "config.txt"))


# solve's flags for the config and CSVs below, as the CLI wrote them when
# solve took --linear: a run without it (linear = false), and one with it
SOLVE_FLAGS = ["solve", "--p", "1.5", "--eps", "2", "--assigns", "to_u1", "--rmax", "12",
               "--cells", "240", "--t-end", "0.5"]
OLD_SOLVE_CONFIG = """\
# glassey-lab v1 config
a = 1.0
assigns = to_u1
b = 0.0
cells = 240
center = 0.0
cfl = 0.5
data_file = 
eps = 2.0
linear = false
n = 3
out = pa
p = 1.5
profile = gaussian
rmax = 12.0
stride = 5
subcommand = solve
t_end = 0.5
width = 1.0
"""
OLD_SOLVE_SERIES = """\
# glassey-lab v1 solve
t,energy,max_v,max_u
0.0,3.937402486430605,2.0,0.0
0.125,5.097830783350408,2.295414473023747,0.26979603579506417
0.25,6.543971217750593,2.4266077110832227,0.5670096492039497
0.375,8.146064670531702,2.325666230700795,0.8667379582510114
0.5,9.719520947141799,1.9520988346966515,1.1369809541210634
"""
OLD_SOLVE_OUTCOME = """\
# glassey-lab v1 solve
status,t_blowup,peak_gradient,t_end
completed,,2.4268775601121195,0.5
"""
OLD_LINEAR_SERIES = """\
# glassey-lab v1 solve
t,energy,max_v,max_u
0.0,3.937402486430605,2.0,0.0
0.125,3.9375391732827367,1.9076682780137129,0.24613211277830696
0.25,3.9379038887174715,1.644733791202843,0.46977197462074916
0.375,3.9383784100893937,1.2503523523950488,0.6518135389500187
0.5,3.9388171319267373,0.7807368878439713,0.7792161564992388
"""
OLD_LINEAR_OUTCOME = """\
# glassey-lab v1 solve
status,t_blowup,peak_gradient,t_end
completed,,2.0,0.5
"""


@pytest.mark.parametrize("argv, series, outcome", [
    (["--config", "{config}"], OLD_SOLVE_SERIES, OLD_SOLVE_OUTCOME),
    (SOLVE_FLAGS + ["--a", "0", "--b", "0"], OLD_LINEAR_SERIES, OLD_LINEAR_OUTCOME),
], ids=["config-linear-false", "a0-b0-as-linear"])
def test_solve_writes_what_it_wrote_with_the_linear_flag(tmp_path, argv, series, outcome):
    config = tmp_path / "config.txt"
    config.write_text(OLD_SOLVE_CONFIG)
    out = str(tmp_path / "run")
    assert main([str(config) if arg == "{config}" else arg for arg in argv]
                + ["--out", out]) == 0
    assert read(os.path.join(out, "series.csv")).decode() == series
    assert read(os.path.join(out, "outcome.csv")).decode() == outcome


# config.txt files and CSVs as the CLI wrote them when norms and kss stepped
# at cfl 0.25 with stride 10 by default
OLD_STEP_NORMS_CONFIG = """\
# glassey-lab v1 config
assigns = to_u0
cells = 160
center = 0.0
cfl = 0.25
data_file = 
delta = 0.3
delta_prime = 0.2
eps = 1.0
n = 3
p = 2.0
profile = gaussian
rmax = 12.0
stride = 10
subcommand = norms
t_end = 2.0
width = 1.0
"""
OLD_STEP_NORMS_CSV = """\
# glassey-lab v1 norms
quantity,value
p_c,2.0
s_c,1.5
lambda1,2.4279767700518593
lambda2,5.412387587975736
e1,2.4279767700518593
e2,5.413956144983235
le1,16.43543803202971
le2,25.6688158657701
le1_deriv,3.0427349910654002
le1_field,3.482559926340602
le1_log,4.791792420719965
le1_horizon,5.1183506939037455
"""
OLD_STEP_KSS_CONFIG = """\
# glassey-lab v1 config
assigns = to_u0
band = 0.25
cells = 160
center = 0.0
cfl = 0.25
data_file = 
delta = 0.3
delta_prime = 0.2
eps = 1.0
n = 3
profile = gaussian
rmax = 12.0
stride = 10
subcommand = kss
t_list = 1,2
variant = hom
width = 1.0
"""
OLD_STEP_KSS_CSV = """\
# glassey-lab v1 kss
lemma_id,n,delta,delta_prime,T,ratio,e1,le1,deriv,field,log,horizon
kss_hom,3,0.3,0.2,1.0,7.076017031072651,2.4279767700518593,14.752428205883863,\
2.400486668312471,2.990744494985275,4.499002450527585,4.862194592058533
kss_hom,3,0.3,0.2,2.0,7.769190807240988,2.4279767700518593,16.43543803202971,\
3.0427349910654002,3.482559926340602,4.791792420719965,5.1183506939037455
"""


@pytest.mark.parametrize("config, csv_name, csv", [
    (OLD_STEP_NORMS_CONFIG, "norms.csv", OLD_STEP_NORMS_CSV),
    (OLD_STEP_KSS_CONFIG, "kss.csv", OLD_STEP_KSS_CSV),
], ids=["norms", "kss-hom"])
def test_config_at_the_old_step_replays_its_csv(tmp_path, config, csv_name, csv):
    path = tmp_path / "config.txt"
    path.write_text(config)
    out = str(tmp_path / "run")
    assert main(["--config", str(path), "--out", out]) == 0
    assert read(os.path.join(out, csv_name)).decode() == csv


# the n = 20 stencil bounds the step at 0.447, below the default cfl 0.5
@pytest.mark.parametrize("argv", [
    ["solve", "--t-end", "1"],
    ["kss", "--t-list", "1"],
    ["norms", "--t-end", "1"],
], ids=["solve", "kss", "norms"])
def test_dimension_past_the_default_step_bound_exits_2(tmp_path, capsys, argv):
    out = str(tmp_path / "run")
    assert main(argv + ["--n", "20", "--rmax", "12", "--cells", "240", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "stability bound 0.447214" in err and "--cfl" in err and "Traceback" not in err
    assert not [name for name in os.listdir(out) if name.endswith(".csv")]


def _csv_rows(path):
    """The rows of a CSV the CLI wrote, as dicts, below its marker line."""
    return list(csv.DictReader(read(path).decode().splitlines()[1:]))


def _free_runs(tmp_path, argv, csv_name):
    """The rows of csv_name from argv at data sizes 1 and 1e7, where a linear
    run's threshold of 1e6 stopped the second at t = 0, an exit 2."""
    rows = []
    for eps in ("1", "1e7"):
        out = str(tmp_path / eps)
        assert main(argv + ["--n", "3", "--rmax", "12", "--cells", "120", "--eps", eps,
                            "--out", out]) == 0
        rows.append(_csv_rows(os.path.join(out, csv_name)))
    return rows


def test_kss_breakdown_lines_hold_the_csv_columns(tmp_path, capsys):
    # the inhom ratios breach the band from a first horizon at T = 1
    code = main(["kss", "--variant", "inhom", "--n", "3", "--rmax", "12", "--cells", "240",
                 "--t-list", "1,2,4", "--out", str(tmp_path / "run")])
    assert code == 3
    lines = [line.split("breakdown: ", 1)[1] for line in capsys.readouterr().out.splitlines()
             if "breakdown: " in line]
    assert len(lines) == 3
    for line in lines:
        assert tuple(ast.literal_eval(line)) == estimates.KSS_COLUMNS


def test_kss_ratio_of_large_data_is_the_unit_ratio(tmp_path):
    unit, large = _free_runs(tmp_path, ["kss", "--variant", "hom", "--t-list", "1"], "kss.csv")
    assert float(large[0]["ratio"]) == pytest.approx(float(unit[0]["ratio"]), rel=1e-12)


def test_kss_inhom_of_a_large_source_is_the_unit_source_scaled(tmp_path):
    # a solve from zero data keeps the absolute threshold of 1e6, which the
    # source of amplitude 1e9 crossed at t = 0: kss solves the unit source
    rows = []
    for eps in ("1", "1e9"):
        out = str(tmp_path / eps)
        assert main(["kss", "--variant", "inhom", "--n", "3", "--t-list", "1", "--rmax", "12",
                     "--cells", "240", "--eps", eps, "--out", out]) == 0
        rows.append(_csv_rows(os.path.join(out, "kss.csv")))
    (unit,), (large,) = rows
    assert large["ratio"] == unit["ratio"]
    for name in estimates.KSS_COLUMNS[estimates.KSS_COLUMNS.index("e1"):]:
        assert float(large[name]) == pytest.approx(1e9 * float(unit[name]), rel=1e-12)


def _header(path):
    """The column names of a CSV the CLI wrote."""
    return read(path).decode().splitlines()[1].split(",")


def _filled(rows):
    """The columns with a cell filled in some row."""
    return {name for row in rows for name, cell in row.items() if cell != ""}


def test_ineq_columns_are_each_filled_by_some_lemma(tmp_path):
    rows = []
    for lemma, n, s in (("hardy", "3", "1.0"), ("trace", "3", "0.75"),
                        ("trace_variant", "2", "0.125")):
        out = str(tmp_path / lemma)
        assert main(["ineq", "--lemma", lemma, "--n", n, "--s", s, "--samples", "3",
                     "--cells", "600", "--out", out]) == 0
        assert _header(os.path.join(out, "ineq.csv")) == list(estimates.INEQ_COLUMNS)
        rows += _csv_rows(os.path.join(out, "ineq.csv"))
    assert _filled(rows) == set(estimates.INEQ_COLUMNS)


@pytest.mark.parametrize("variant", ["hom", "inhom"])
def test_kss_columns_are_each_filled_at_n3(tmp_path, variant):
    out = str(tmp_path / "run")
    assert main(["kss", "--variant", variant, "--n", "3", "--rmax", "12", "--cells", "120",
                 "--t-list", "2,4", "--out", out]) == 0
    path = os.path.join(out, "kss.csv")
    assert _header(path) == list(estimates.KSS_COLUMNS)
    assert _filled(_csv_rows(path)) == set(estimates.KSS_COLUMNS)


@pytest.mark.parametrize("argv, layouts", [
    (["picard", "--n", "3", "--p", "2.5", "--eps", "0.05", "--assigns", "split",
      "--rmax", "14", "--cells", "350", "--t-end", "4"],
     {"picard_trace.csv": glassey_lab.PicardTrace}),
    (["lifespan", "--n", "3", "--p", "1.5", "--eps", "1.4,2.0,2.8,4.0", "--horizon", "15",
      "--rmax", "23", "--ladder", "460,920", "--assigns", "split"],
     {"sweep.csv": glassey_lab.LifespanRecord, "fit.csv": glassey_lab.FitResult}),
    # a header-only fit.csv: no law is fit above the threshold power
    (["lifespan", "--n", "3", "--p", "2.5", "--eps", "0.5,1", "--horizon", "2",
      "--rmax", "12", "--ladder", "120,240"],
     {"sweep.csv": glassey_lab.LifespanRecord, "fit.csv": glassey_lab.FitResult}),
], ids=["picard", "lifespan-subcritical", "lifespan-supercritical"])
def test_record_csv_header_is_its_record_fields(tmp_path, argv, layouts):
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == 0
    for name, record in layouts.items():
        assert _header(os.path.join(out, name)) == [f.name for f in dataclasses.fields(record)]


def test_norms_of_large_data_scale_with_it(tmp_path):
    unit, large = _free_runs(tmp_path, ["norms", "--t-end", "1"], "norms.csv")
    for a, b in zip(unit, large):
        scale = 1.0 if a["quantity"] in ("p_c", "s_c") else 1e7
        assert float(b["value"]) == pytest.approx(scale * float(a["value"]), rel=1e-12)


# bad values for any flag: not finite, negative, zero, or past the double range
_BAD = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0.25", "1e308", "0.9", "junk"])


@st.composite
def _solve_flags(draw, drop=(), **extra):
    """Flags of a small solve that norms and kss share, less those in `drop`,
    plus `extra` (flag -> strategy), with at most two of their values
    replaced by bad ones."""
    flags = {
        "--n": draw(st.one_of(st.integers(2, 9), st.sampled_from([1, 16, 20, 400]))),
        "--cfl": draw(st.floats(0.1, 0.75)),
        "--stride": draw(st.integers(1, 12)),
        "--delta": draw(st.floats(0.05, 0.45)),
        "--delta-prime": draw(st.floats(-0.5, 0.04)),
        "--profile": draw(st.sampled_from(["gaussian", "smooth_bump"])),
        "--eps": draw(st.floats(0.0, 4.0)),
        "--width": draw(st.floats(0.2, 1.5)),
        "--center": draw(st.floats(0.0, 1.0)),
        "--assigns": draw(st.sampled_from(["to_u0", "to_u1", "split"])),
        "--rmax": draw(st.floats(6.0, 20.0)),
        "--cells": draw(st.integers(16, 128)),
    }
    for flag in drop:
        del flags[flag]
    flags.update({flag: draw(strategy) for flag, strategy in extra.items()})
    return draw(_with_bad_values(flags))


@st.composite
def _with_bad_values(draw, flags):
    """`flags` as --flag=value tokens, with at most two of the values that
    are not choices replaced by bad ones."""
    numeric = [f for f in flags
               if f not in ("--profile", "--assigns", "--variant", "--data-file")]
    for flag in draw(st.lists(st.sampled_from(numeric), max_size=2, unique=True)):
        flags[flag] = draw(_BAD)
    # --flag=value, so that a negative value is not read as a flag
    return [f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}"
            for flag, value in flags.items()]


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(flags=_solve_flags(**{"--p": st.floats(1.05, 4.0), "--t-end": st.floats(0.0, 2.0)}))
def test_norms_flags_never_exit_1(flags):
    code, err = _exit_code(["norms"] + flags)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(flags=_solve_flags(drop=("--delta", "--delta-prime"), **{
    "--p": st.floats(1.05, 4.0), "--a": st.floats(-1.0, 1.0), "--b": st.floats(-1.0, 1.0),
    "--t-end": st.floats(0.0, 2.0)}))
@example(flags=["--t-end=1e308", "--rmax=12", "--cells=64"])
def test_solve_flags_never_exit_1(flags):
    code, err = _exit_code(["solve"] + flags)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


_HORIZONS = st.lists(st.floats(0.05, 2.0).map(repr), min_size=1, max_size=2).map(",".join)


# stands for the path of a readable data file, which the test writes
_FIELD_FILE = "<field file>"


@st.composite
def _kss_flags(draw):
    """Flags of a small kss run.  inhom solves from zero data and refuses the
    data flags --profile, --assigns and --data-file, so only hom draws them;
    its from_file runs read the file _FIELD_FILE stands for."""
    extra = {"--t-list": _HORIZONS}
    if draw(st.booleans()):
        profile = draw(st.sampled_from(["gaussian", "smooth_bump", "from_file"]))
        extra.update({"--variant": st.just("hom"), "--profile": st.just(profile)})
        if profile == "from_file":
            extra["--data-file"] = st.just(_FIELD_FILE)
        return draw(_solve_flags(**extra))
    extra["--variant"] = st.just("inhom")
    return draw(_solve_flags(drop=("--profile", "--assigns"), **extra))


def test_kss_flags_never_exit_1(tmp_path, monkeypatch):
    field = tmp_path / "field.txt"
    field.write_text("# radial-field v1\n0.0 1.0\n0.5 0.5\n1.0 0.0\n2.0 0.0\n")
    # the inhom examples that reach the forced solve, the only one they make
    forced = []
    free_solve = estimates._free_solve

    def counting(u0, u1, n, horizon, forcing=None, **step):
        if forcing is not None:
            forced.append(horizon)
        return free_solve(u0, u1, n, horizon, forcing, **step)

    monkeypatch.setattr(estimates, "_free_solve", counting)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(flags=_kss_flags())
    def never_exit_1(flags):
        flags = [flag.replace(_FIELD_FILE, str(field)) for flag in flags]
        code, err = _exit_code(["kss"] + flags)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err

    never_exit_1()
    assert len(forced) >= 10


# mostly dimensions that picard's weights admit; n = 20 is past the step bound
_DIMENSIONS = st.sampled_from([3, 2, 4, 5, 20])


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(flags=_solve_flags(drop=("--delta", "--delta-prime"), **{
    "--n": _DIMENSIONS, "--p": st.floats(1.5, 4.0), "--a": st.floats(-1.0, 1.0),
    "--b": st.floats(-1.0, 1.0), "--eps": st.floats(0.0, 0.2), "--t-end": st.floats(0.0, 2.0),
    "--max-iters": st.integers(2, 3), "--tol": st.floats(1e-10, 1e-2)}))
def test_picard_flags_never_exit_1(flags):
    code, err = _exit_code(["picard"] + flags)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


def _ascending(values):
    return ",".join(repr(v) for v in sorted(set(values)))


@st.composite
def _lifespan_flags(draw):
    """Flags of a small sweep (two rungs of at most 240 cells, a horizon of
    at most 4, at most three epsilons), with at most two values replaced by
    bad ones."""
    coarse = draw(st.integers(16, 120))
    flags = {
        "--n": draw(_DIMENSIONS),
        "--p": draw(st.floats(1.05, 4.0)),
        "--a": draw(st.floats(-1.0, 1.0)),
        "--b": draw(st.floats(-1.0, 1.0)),
        "--cfl": draw(st.floats(0.1, 0.75)),
        "--profile": draw(st.sampled_from(["gaussian", "smooth_bump"])),
        "--width": draw(st.floats(0.2, 1.5)),
        "--center": draw(st.floats(0.0, 1.0)),
        "--assigns": draw(st.sampled_from(["to_u0", "to_u1", "split"])),
        "--rmax": draw(st.floats(4.0, 16.0)),
        "--horizon": draw(st.floats(0.05, 4.0)),
        "--ladder": f"{coarse},{draw(st.integers(coarse + 1, 240))}",
        "--eps-list": draw(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3)
                           .map(_ascending)),
    }
    return draw(_with_bad_values(flags))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(flags=_lifespan_flags())
def test_lifespan_flags_never_exit_1(flags):
    # the sweep refuses up front or measures every epsilon: an exit 2 leaves
    # no sweep.csv, or one with a row per epsilon when the fit refuses the
    # records (a fit needs 4, and at most 3 are swept here); nothing warns
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["lifespan"] + flags + ["--out", out])
        sweep = os.path.join(out, "sweep.csv")
        rows = len(read(sweep).decode().splitlines()) - 2 if os.path.exists(sweep) else None
    err = err.getvalue()
    assert code in (0, 2), err
    assert "Traceback" not in err and [str(w.message) for w in caught] == []
    if code == 2 and rows is not None:
        eps = next(f for f in flags if f.startswith("--eps-list="))
        assert "usable records" in err or "records censored" in err, err
        assert rows == len(eps.split("=", 1)[1].split(",")), err


def _readme_examples():
    """The commands of the README's example block, each as its argv."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    block = next(b for b in blocks if b.lstrip().startswith("glassey-lab solve"))
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip()]


@pytest.mark.parametrize("argv", _readme_examples(),
                         ids=lambda argv: argv[argv.index("--out") + 1])
def test_readme_example_runs(tmp_path, argv):
    at = argv.index("--out") + 1
    argv = argv[:at] + [str(tmp_path / argv[at])] + argv[at + 1:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
