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
from glassey_lab import estimates, lifespan
from glassey_lab.cli import main
from glassey_lab.report import read_config


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _no_solve(*args, **kwargs):
    raise AssertionError("evolve was called")


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
    monkeypatch.setattr(lifespan, "evolve", _no_solve)
    out = str(tmp_path / "run")
    code = main(["lifespan", "--n", "3", "--p", "1.5", "--eps", "1.4,2.0,2.8,4.0",
                 "--horizon", "4", "--rmax", "16", "--ladder", "160,240,320",
                 "--assigns", "split", "--out", out])
    assert code == 2
    assert "ladder needs exactly 2" in capsys.readouterr().err


# a parameter that every rung would fail is refused once, before the first
# epsilon, with its own message (not one warning per epsilon and then
# "no records"); --n 20 is past the default lifespan step's bound, and a
# fractional cell count is refused, not truncated to a 120-cell rung
@pytest.mark.parametrize("flag, value, message", [
    ("--ladder", "120.9,240", "ladder cell count 120.9 is not a whole number"),
    ("--horizon", "nan", "horizon must be finite and > 0, got nan"),
    ("--horizon", "0", "horizon must be finite and > 0, got 0.0"),
    ("--horizon", "-1", "horizon must be finite and > 0, got -1.0"),
    ("--cfl", "0.9", "cfl must lie in (0, 0.75], got 0.9"),
    ("--n", "20", "cfl 0.5 is at or past the RK4 stability bound 0.447214"),
], ids=["ladder-fraction", "horizon", "horizon-0", "horizon-negative", "cfl", "n"])
def test_lifespan_run_wide_bad_parameter_exits_2_before_any_epsilon(
        tmp_path, monkeypatch, capsys, flag, value, message):
    monkeypatch.setattr(lifespan, "evolve", _no_solve)
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


# a NaN tolerance would turn the violation gate off, an infinite one would
# stop the iteration after one step as converged
@pytest.mark.parametrize("argv, message", [
    (["ineq", "--lemma", "hardy", "--s", "1.0", "--samples", "3", "--cells", "400",
      "--tol", "nan"], "tol must be finite and >= 0, got nan"),
    (["ineq", "--lemma", "hardy", "--s", "1.0", "--samples", "3", "--cells", "400",
      "--tol", "-0.9"], "tol must be finite and >= 0, got -0.9"),
    (["picard", "--rmax", "12", "--cells", "200", "--t-end", "2", "--tol", "inf"],
     "tol must be finite and positive, got inf"),
], ids=["ineq-nan", "ineq-negative", "picard-inf"])
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


# an infinite band turns the uniformity gate off, a NaN one fails every run
@pytest.mark.parametrize("band", ["inf", "nan", "-0.5"])
def test_kss_bad_band_exits_2_before_any_solve(tmp_path, monkeypatch, capsys, band):
    monkeypatch.setattr(estimates, "evolve", _no_solve)
    code = main(["kss", "--variant", "hom", "--n", "3", "--t-list", "1,4", "--rmax", "24",
                 "--cells", "480", "--band", band, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"precondition: --band must be finite and >= 0, got {float(band)}" in err
    assert "Traceback" not in err


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
@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(lemma=st.sampled_from(["hardy", "trace", "trace_variant"]),
       n=st.integers(1, 6),
       s=st.one_of(st.floats(0.5, 0.95),
                   st.sampled_from([0.0, 1.0, -0.5, 1.5, math.nan, math.inf])),
       seed=st.integers(-3, 2**40),
       tol=st.one_of(st.floats(0.0, 0.1), st.sampled_from([-0.5, math.nan, math.inf])),
       samples=st.integers(1, 3),
       cells=st.integers(16, 128))
@example(lemma="hardy", n=3, s=0.5, seed=-1, tol=1e-9, samples=3, cells=64)
def test_ineq_flags_never_exit_1(lemma, n, s, seed, tol, samples, cells):
    code, err = _exit_code(["ineq", "--lemma", lemma, "--n", str(n), "--s", repr(s),
                            "--seed", str(seed), "--tol", repr(tol), "--samples", str(samples),
                            "--cells", str(cells), "--rmax", "12"])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


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
    (["lifespan", "--n", "3", "--p", "1.5", "--eps", "2.8,4.0", "--horizon", "6",
      "--rmax", "12", "--ladder", "120,240", "--stride", "20"], "--stride"),
    (["norms", "--n", "3", "--eps", "1.0", "--rmax", "18", "--cells", "450",
      "--t-end", "4", "--a", "1"], "--a"),
    (["norms", "--n", "3", "--eps", "1.0", "--rmax", "18", "--cells", "450",
      "--t-end", "4", "--b", "1"], "--b"),
    # a config.txt written before the flag was dropped names it as a key
    (["--config", "{config}"], "--seed"),
    (["--config", "{lifespan_config}"], "--stride"),
], ids=["solve-seed", "ineq-p", "kss-jobs", "kss-b", "picard-seed", "lifespan-seed",
        "lifespan-stride", "norms-a", "norms-b", "solve-config-seed", "lifespan-config-stride"])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv, flag):
    configs = {
        "{config}": "subcommand = solve\nrmax = 12.0\ncells = 240\nt_end = 0.5\nseed = 7\n",
        "{lifespan_config}": "subcommand = lifespan\neps_list = 2.8,4.0\nhorizon = 6.0\n"
                             "rmax = 12.0\nladder = 120,240\nstride = 20\n",
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
lemma_id,n,s,s1,s2,delta,delta_prime,T,seed,ratio,bound,violation,e1,le1,deriv,field,log,horizon
kss_hom,3,,,,0.3,0.2,1.0,,7.076017031072651,,false,2.4279767700518593,14.752428205883863,\
2.400486668312471,2.990744494985275,4.499002450527585,4.862194592058533
kss_hom,3,,,,0.3,0.2,2.0,,7.769190807240988,,false,2.4279767700518593,16.43543803202971,\
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


# bad values for any flag: not finite, negative, zero, or past the double range
_BAD = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0.25", "1e308", "0.9", "junk"])


@st.composite
def _solve_flags(draw, **extra):
    """Flags of a small solve that norms and kss share, plus `extra` (flag ->
    strategy), with at most two of their values replaced by bad ones."""
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
    flags.update({flag: draw(strategy) for flag, strategy in extra.items()})
    numeric = [f for f in flags if f not in ("--profile", "--assigns", "--variant")]
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


_HORIZONS = st.lists(st.floats(0.05, 2.0).map(repr), min_size=1, max_size=2).map(",".join)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(flags=_solve_flags(**{"--variant": st.sampled_from(["hom", "inhom"]),
                             "--t-list": _HORIZONS, "--band": st.floats(0.0, 1.0)}))
def test_kss_flags_never_exit_1(flags):
    code, err = _exit_code(["kss"] + flags)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
