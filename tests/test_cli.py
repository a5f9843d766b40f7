import concurrent.futures
import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glassey_lab
from glassey_lab import lifespan
from glassey_lab.cli import main
from glassey_lab.report import read_config


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is only for exact_free_n3 and from_file data; the CLI's startup
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


def test_config_replay_is_byte_identical(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["ineq", "--lemma", "trace_variant", "--n", "2", "--s", "0.125",
                 "--samples", "20", "--seed", "3", "--cells", "600",
                 "--out", out1]) == 0
    assert main(["--config", os.path.join(out1, "config.txt"),
                 "--out", out2]) == 0
    assert read(os.path.join(out1, "ineq.csv")) == read(os.path.join(out2, "ineq.csv"))


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
    # an absurdly tight uniformity band must trip the invariant gate
    code = main(["kss", "--variant", "hom", "--n", "3", "--delta", "0.3",
                 "--delta-prime", "0.2", "--t-list", "1,4,16", "--rmax", "24",
                 "--cells", "480", "--band", "1e-6", "--out", out])
    assert code == 3


def test_lifespan_subcommand_small(tmp_path):
    out = str(tmp_path / "run")
    # --eps is the documented spelling for the sweep list; --eps-list is the
    # unambiguous long form
    code = main(["lifespan", "--n", "3", "--p", "1.5", "--a", "1", "--b", "0",
                 "--eps", "1.4,2.0,2.8,4.0", "--horizon", "15",
                 "--rmax", "23", "--cells", "920", "--ladder", "460,920",
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


def test_lifespan_three_rung_ladder_exits_2(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("evolve was called")

    monkeypatch.setattr(lifespan, "evolve", no_solve)
    out = str(tmp_path / "run")
    code = main(["lifespan", "--n", "3", "--p", "1.5", "--eps", "1.4,2.0,2.8,4.0",
                 "--horizon", "4", "--rmax", "16", "--ladder", "160,240,320",
                 "--assigns", "split", "--out", out])
    assert code == 2
    assert "ladder needs exactly 2" in capsys.readouterr().err


# a parameter that every rung would fail is refused once, before the first
# epsilon, with its own message (not one warning per epsilon and then
# "no records"); --n 20 is past the default lifespan step's bound
@pytest.mark.parametrize("flag, value, message", [
    ("--stride", "0", "sample_stride must be >= 1"),
    ("--horizon", "nan", "horizon must be finite and > 0, got nan"),
    ("--horizon", "0", "horizon must be finite and > 0, got 0.0"),
    ("--horizon", "-1", "horizon must be finite and > 0, got -1.0"),
    ("--cfl", "0.9", "cfl must lie in (0, 0.75], got 0.9"),
    ("--n", "20", "cfl 0.5 is at or past the RK4 stability bound 0.447214"),
], ids=["stride", "horizon", "horizon-0", "horizon-negative", "cfl", "n"])
def test_lifespan_run_wide_bad_parameter_exits_2_before_any_epsilon(
        tmp_path, monkeypatch, capsys, flag, value, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("evolve was called")

    monkeypatch.setattr(lifespan, "evolve", no_solve)
    out = str(tmp_path / "run")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["lifespan", "--n", "3", "--p", "1.5", "--eps-list", "1,2,3,4",
                     "--horizon", "4", "--rmax", "16", "--ladder", "160,320",
                     flag, value, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert f"precondition: {message}" in err and "Traceback" not in err


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
    ["solve", "--n", "340", "--linear", "--eps", "1", "--rmax", "12", "--cells", "240",
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


# at least one flag per subcommand that its runner never reads; kss --b and
# norms --a must not be taken as prefixes of --band and --assigns
@pytest.mark.parametrize("argv, flag", [
    (["solve", "--rmax", "12", "--cells", "240", "--t-end", "0.5", "--seed", "1"], "--seed"),
    (["ineq", "--lemma", "hardy", "--n", "3", "--s", "1.0", "--samples", "4",
      "--cells", "600", "--p", "2"], "--p"),
    (["kss", "--variant", "hom", "--n", "3", "--t-list", "1,2", "--rmax", "24",
      "--cells", "480", "--jobs", "1"], "--jobs"),
    (["kss", "--variant", "hom", "--n", "3", "--t-list", "1,2", "--rmax", "24",
      "--cells", "480", "--b", "1"], "--b"),
    (["picard", "--n", "3", "--p", "2.5", "--eps", "0.05", "--assigns", "split",
      "--rmax", "10", "--cells", "160", "--t-end", "2", "--seed", "9"], "--seed"),
    (["lifespan", "--n", "3", "--p", "1.5", "--eps", "2.8,4.0", "--horizon", "6",
      "--rmax", "12", "--ladder", "120,240", "--seed", "1"], "--seed"),
    (["norms", "--n", "3", "--eps", "1.0", "--rmax", "18", "--cells", "450",
      "--t-end", "4", "--a", "1"], "--a"),
    (["norms", "--n", "3", "--eps", "1.0", "--rmax", "18", "--cells", "450",
      "--t-end", "4", "--b", "1"], "--b"),
    # a config.txt written before the flag was dropped names it as a key
    (["--config", "{config}"], "--seed"),
], ids=["solve-seed", "ineq-p", "kss-jobs", "kss-b", "picard-seed", "lifespan-seed", "norms-a",
        "norms-b", "solve-config-seed"])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv, flag):
    config = tmp_path / "config.txt"
    config.write_text("# glassey-lab v1 config\nsubcommand = solve\nrmax = 12.0\n"
                      "cells = 240\nt_end = 0.5\nseed = 7\n")
    argv = [str(config) if arg == "{config}" else arg for arg in argv]
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
