import concurrent.futures
import gc
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavityqsl
import cavityqsl.errors
from cavityqsl import cli, dynamics, sweep
from cavityqsl.cli import (SWEEP_KEYS, build_params, build_sweep_spec,
                           cli_main, parse_config, run_checks)
from cavityqsl.dynamics import (CERTIFIED_DISTANCE, CERTIFIED_POSITIVITY, DEFAULT_STEPS,
                                analytic_trajectory, evolve_master)
from cavityqsl.errors import NoConvergence, NumericalError, ValidationError
from cavityqsl.model import SystemParams, derive, matched_reservoir
from cavityqsl.sweep import (CSV_HEADER, TRAJECTORY_HEADER, SweepSpec, engine_row, engines_of,
                             format_row, grid_values, point_params, run_sweep,
                             write_sweep_csv, write_trajectory_csv)

QUIET = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, delta_c=3.03, gamma=1e-3,
                     kappa=1e-3, r_e=0.1, theta_e=math.pi)


def small_spec(**overrides):
    kwargs = dict(variable="delta_a", range=(-2.0, 2.0, 3), base=QUIET,
                  engine="master", steps=100)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


# ---- spec validation ----

@pytest.mark.parametrize("overrides", [
    dict(variable="gamma"),
    dict(range=(0.0, 1.0, 1)),
    dict(range=(1.0, 1.0, 5)),
    dict(range=(2.0, 1.0, 5)),
    dict(range=(0.0, float("inf"), 5)),
    dict(second_variable="r_p"),
    dict(second_range=(0.0, 1.0, 3)),
    dict(second_variable="delta_a", second_range=(0.0, 1.0, 3)),
    dict(second_variable="tau", second_range=(0.0, 1.0, 3)),
    dict(constraint_mode="pinned"),
    dict(engine="exact"),
    dict(cutoff=0),
    dict(steps=99),
    dict(range=(-1e308, 1e308, 3)),
    dict(second_variable="alpha", second_range=(-1e308, 1e308, 3)),
    dict(range=(0.0, 1.0, 2.5)),
    dict(cutoff=2.5),
    dict(steps=150.5),
])
def test_spec_rejects_bad_input(overrides):
    with pytest.raises(ValidationError):
        small_spec(**overrides)


def test_spec_rejects_analytic_with_tilted_start():
    tilted = SystemParams(g=1.0, alpha=0.4)
    with pytest.raises(ValidationError):
        small_spec(engine="analytic", base=tilted)
    with pytest.raises(ValidationError):
        small_spec(engine="both", second_variable="alpha",
                   second_range=(0.0, 1.0, 3))


def test_spec_rejects_constrained_cavity_detuning_sweep():
    with pytest.raises(ValidationError):
        small_spec(variable="delta_c", constraint_mode="fig2_constrained")


def test_points_total():
    assert len(small_spec().points) == 3
    assert len(small_spec(second_variable="alpha",
                          second_range=(0.0, 1.0, 4)).points) == 12


# ---- grids and constraint application ----

def test_grid_values_inclusive():
    g = grid_values((-1.0, 1.0, 5))
    assert g[0] == -1.0 and g[-1] == 1.0 and len(g) == 5
    assert np.allclose(np.diff(g), 0.5)


def test_point_params_free_mode_touches_only_the_variable():
    params, var1, var2 = point_params(small_spec(), 2)
    assert var1 == 2.0 and var2 is None
    assert params.delta_a == 2.0
    assert params.delta_c == QUIET.delta_c
    assert params.r_e == QUIET.r_e


def test_point_params_constrained_mode_rederives_cavity_settings():
    spec = small_spec(constraint_mode="fig2_constrained")
    params, _, _ = point_params(spec, 0)
    assert params.delta_a == -2.0  # swept value kept
    beta = math.tanh(2.0 * QUIET.r_p)
    g_s = QUIET.g * math.cosh(QUIET.r_p)
    assert params.delta_c == pytest.approx(3.0 * g_s / math.sqrt(1.0 - beta**2), rel=1e-14)
    assert params.r_e == QUIET.r_p
    assert params.theta_e == pytest.approx(math.pi - QUIET.theta_p)
    # the derived detuning lands exactly on 3 g_s
    assert derive(params).delta_s == pytest.approx(3.0 * g_s, rel=1e-12)


def test_point_params_constrained_coupling_sweep_scales_atom_detuning():
    spec = small_spec(variable="g", range=(1.0, 3.0, 3),
                      constraint_mode="fig2_constrained")
    params, var1, _ = point_params(spec, 2)
    assert var1 == 3.0
    assert params.g == 3.0
    # delta_a was 2 per unit of g at the base point
    assert params.delta_a == pytest.approx(6.0, rel=1e-14)


def test_point_params_two_dimensional_index_order():
    spec = small_spec(second_variable="alpha", second_range=(0.0, 1.0, 2))
    # index = outer * n1 + inner with the first variable innermost
    _, var1, var2 = point_params(spec, 0)
    assert (var1, var2) == (-2.0, 0.0)
    _, var1, var2 = point_params(spec, 2)
    assert (var1, var2) == (2.0, 0.0)
    _, var1, var2 = point_params(spec, 3)
    assert (var1, var2) == (-2.0, 1.0)
    with pytest.raises(ValidationError):
        point_params(spec, 6)


@pytest.mark.parametrize("spec", [
    small_spec(), small_spec(second_variable="alpha", second_range=(0.0, 1.0, 2))],
    ids=["1d", "2d"])
def test_point_params_rejects_indices_outside_the_grid(spec):
    for index in (-1, len(spec.points)):
        with pytest.raises(ValidationError, match=f"index {index} outside grid of "
                                                  f"{len(spec.points)}"):
            point_params(spec, index)


# ---- running sweeps ----

def test_run_sweep_row_layout():
    rows = run_sweep(small_spec(engine="both"))
    assert len(rows) == 6
    assert [r.engine for r in rows] == ["analytic", "master"] * 3
    assert [r.index for r in rows] == [0, 0, 1, 1, 2, 2]
    for r in rows:
        assert r.flag == "ok"
        assert r.t_op >= r.t_hs >= r.t_tr > 0.0
        assert r.t_qsl == r.t_op
    # analytic rows do not carry a Fock cutoff; master rows record theirs
    assert rows[0].cutoff == 1 and rows[1].cutoff == 2
    assert [r.cutoff for r in run_sweep(small_spec(cutoff=4))] == [4, 4, 4]
    # an unmatched reservoir picks the noisy default cutoff
    noisy = small_spec(base=replace(QUIET, r_e=0.0), engine="both")
    assert [r.cutoff for r in run_sweep(noisy)] == [1, 10] * 3


def test_run_sweep_is_deterministic():
    a = [format_row(r) for r in run_sweep(small_spec())]
    b = [format_row(r) for r in run_sweep(small_spec())]
    assert a == b


def test_run_sweep_worker_count_does_not_change_output():
    # r_e = 0 makes the second grid noisy: cutoff 10 and a 242-entry block,
    # above the size where OpenBLAS splits a product over threads
    noisy = small_spec(variable="r_p", range=(0.1, 0.3, 2), base=replace(QUIET, r_e=0.0))
    for spec, cutoff in ((small_spec(), 2), (noisy, 10)):
        sequential = run_sweep(spec, workers=1)
        assert {r.cutoff for r in sequential} == {cutoff}
        parallel = run_sweep(spec, workers=2)
        assert [format_row(r) for r in sequential] == [format_row(r) for r in parallel]


def test_run_sweep_rejects_bad_worker_count():
    with pytest.raises(ValidationError, match="workers must be >= 1, got 0"):
        run_sweep(small_spec(), workers=0)


@pytest.mark.parametrize("workers", [2.5, "2", None])
def test_run_sweep_rejects_non_integer_worker_count(workers, monkeypatch):
    # the check comes before any pool; a stand-in fails the test if one starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    message = re.escape(f"workers must be an integer, got {workers!r}")
    with pytest.raises(ValidationError, match=message):
        run_sweep(small_spec(), workers=workers)


@pytest.fixture
def pool_sizes(monkeypatch):
    # an inline stand-in for the pool records its size and starts no process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_run_sweep_starts_no_more_workers_than_points(pool_sizes, monkeypatch):
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 8)
    pooled = run_sweep(small_spec(), workers=64)
    assert pool_sizes == [3]
    assert [format_row(r) for r in pooled] == [format_row(r) for r in run_sweep(small_spec())]


@pytest.mark.parametrize("cpus, size", [(1, 2), (2, 2), (4, 4)])
def test_run_sweep_starts_no_more_workers_than_usable_cpus(cpus, size, pool_sizes,
                                                             monkeypatch):
    # at least 2, so that a one-CPU machine still runs the pooled path
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
    spec = small_spec(range=(-2.0, 2.0, 5))
    pooled = run_sweep(spec, workers=5000)
    assert pool_sizes == [size]
    assert [format_row(r) for r in pooled] == [format_row(r) for r in run_sweep(spec)]


def test_usable_cpus_counts_this_process():
    assert 1 <= sweep._usable_cpus() <= (os.cpu_count() or 1)


def test_importing_the_cli_loads_no_process_pool():
    # only a pooled run_sweep imports concurrent.futures
    src = str(Path(cavityqsl.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, cavityqsl.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_grid_is_checked_before_the_first_point(monkeypatch, capsys):
    # r_p = 10 (the last of three points) is past threshold; no point may run
    calls = []
    original = cavityqsl.sweep.evolve_master
    monkeypatch.setattr(cavityqsl.sweep, "evolve_master",
                        lambda *args: calls.append(args) or original(*args))
    assert cli_main(["sweep", "--variable", "r_p", "--range", "0,10,3",
                     "--constraint_mode", "fig2_constrained", "--engine", "master",
                     "--steps", "100"]) == 1
    assert capsys.readouterr().err.startswith("error: r_p must be below threshold")
    assert calls == []


CONFIGS_DIR = Path(__file__).parent.parent / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_builds_its_grid(path):
    spec = build_sweep_spec(parse_config(path.read_text(encoding="utf-8")))
    expected = spec.range[2] * (spec.second_range[2] if spec.second_range else 1)
    assert len(spec.points) == expected


def test_error_rows_carry_flag_and_empty_numbers():
    hot = SystemParams(g=1.0, r_e=0.25, kappa=0.3, tau=2.0)
    rows = run_sweep(small_spec(base=hot, cutoff=1, steps=400))
    assert all(r.flag == "error:CutoffNotConverged" for r in rows)
    assert all(r.t_qsl is None and r.bures is None for r in rows)
    line = format_row(rows[0])
    assert line.endswith(",error:CutoffNotConverged")
    assert ",,," in line  # emptied numeric cells
    # derived columns still describe the point
    assert rows[0].n_s > 0.0


# ---- CSV shape ----

def test_csv_header_is_pinned():
    assert CSV_HEADER == ("index,var1,var2,beta,g_s,delta_s,n_s,abs_m_s,"
                          "engine,bures,lambda_op,lambda_tr,lambda_hs,"
                          "t_op,t_tr,t_hs,t_qsl,cutoff,steps,trace_err,flag")


def test_csv_row_field_count_and_formatting(tmp_path):
    import io
    rows = run_sweep(small_spec())
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert len(cells) == 21
    assert cells[0] == "0" and cells[2] == ""  # no second variable
    # shortest float round trip: full precision survives parsing
    assert float(cells[13]) == rows[0].t_op


def test_trajectory_csv(tmp_path):
    import io
    from cavityqsl.dynamics import evolve_master
    traj = evolve_master(QUIET, steps=100)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 102
    first = [float(c) for c in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.0 and first[11] == 1.0
    # every cell, on a tilted start with nonzero coherences and on the closed
    # form, against a per-cell loop
    for traj in (evolve_master(replace(QUIET, alpha=0.3), steps=100),
                 analytic_trajectory(QUIET, steps=100)):
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        expected = [TRAJECTORY_HEADER]
        for t, atom, trace, min_eig in zip(traj.times, traj.rho_atom, traj.traces,
                                           traj.min_eigs):
            cells = [t, *(part for z in atom.ravel() for part in (z.real, z.imag)),
                     atom[0, 0].real, atom[1, 1].real, trace, min_eig]
            expected.append(",".join(format(c, ".17g") for c in cells))
        assert buf.getvalue() == "\n".join(expected) + "\n"


# ---- config parsing ----

def test_parse_config_round_trip():
    text = """
    # comment line
    variable = delta_a
    range = -10, 10, 5   # inline comment
    g = 1.5
    engine = both
    """
    settings = parse_config(text)
    assert settings == {"variable": "delta_a", "range": "-10, 10, 5",
                        "g": "1.5", "engine": "both"}
    spec = build_sweep_spec(settings)
    assert spec.range == (-10.0, 10.0, 5)
    assert spec.base.g == 1.5


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValidationError, match="unknown key 'detuning'"):
        parse_config("detuning = 3\n")


MALFORMED = {
    "variable delta_a\n": "expected key = value",
    "g = \n": "empty value for 'g'",
    "g = 1\ng = 2\n": "duplicate key 'g'",
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_config_rejects_malformed_lines(text):
    with pytest.raises(ValidationError, match=MALFORMED[text]):
        parse_config(text)


def test_build_sweep_spec_needs_variable_and_range():
    with pytest.raises(ValidationError, match="needs both 'variable' and 'range'"):
        build_sweep_spec({"variable": "delta_a"})
    with pytest.raises(ValidationError, match="needs both 'variable' and 'range'"):
        build_sweep_spec({"range": "0, 1, 5"})
    with pytest.raises(ValidationError, match="bad value for range"):
        build_sweep_spec({"variable": "delta_a", "range": "0, 1"})
    with pytest.raises(ValidationError, match="bad value for range"):
        build_sweep_spec({"variable": "delta_a", "range": "0, 1, x"})


def test_build_params_type_errors():
    with pytest.raises(ValidationError, match="bad value for g"):
        build_params({"g": "fast"})


# ---- command line ----

def test_cli_qsl_writes_csv(tmp_path):
    out = tmp_path / "point.csv"
    code = cli_main(["qsl", "--g", "1.0", "--r_p", "0.1", "--delta_a", "2.0",
                     "--delta_c", "3.03", "--gamma", "1e-3", "--kappa", "1e-3",
                     "--r_e", "0.1", "--theta_e", str(math.pi),
                     "--engine", "both", "--steps", "200", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[8] == "analytic"
    assert lines[2].split(",")[8] == "master"


def test_cli_qsl_frozen_start(tmp_path):
    out = tmp_path / "frozen.csv"
    code = cli_main(["qsl", "--alpha", str(math.pi / 2), "--r_p", "0.3",
                     "--delta_a", "1.0", "--steps", "150", "--out", str(out)])
    assert code == 0
    assert out.read_text().strip().split("\n")[1].endswith(",frozen")


def test_cli_sweep_from_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("variable = delta_a\nrange = -2, 2, 3\n"
                   "g = 1.0\nr_p = 0.1\ndelta_c = 3.03\ngamma = 1e-3\n"
                   "kappa = 1e-3\nr_e = 0.1\ntheta_e = 3.141592653589793\n"
                   "steps = 100\nengine = master\n")
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4


def test_cli_sweep_flag_overrides_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("variable = delta_a\nrange = -2, 2, 3\nsteps = 100\n")
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--config", str(cfg), "--range", "-1, 1, 2",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "-1"


def test_cli_evolve(tmp_path):
    out = tmp_path / "traj.csv"
    code = cli_main(["evolve", "--g", "1.0", "--tau", "0.5", "--steps", "100",
                     "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(TRAJECTORY_HEADER)


def test_cli_exit_code_for_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("variable = delta_a\nrange = -2, 2, 3\nwavelength = 7\n")
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    assert "wavelength" in capsys.readouterr().err
    assert cli_main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert cli_main(["qsl", "--g", "-1.0"]) == 1


def test_cli_config_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"variable = delta_a\nrange = 0, 1, 2\n# \xe9\n")
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config {str(cfg)!r}")


@pytest.mark.parametrize("command", [
    ["evolve", "--cutoff", "x"], ["qsl", "--engine", "bogus"],
    ["sweep", "--workers", "two"], ["qsl", "--bogus", "1"], ["check", "--seed", "x"], []],
    ids=["evolve_cutoff", "qsl_engine", "sweep_workers", "qsl_unknown_flag",
         "check_seed", "no_command"])
def test_malformed_command_line_exits_1(command, capsys):
    assert cli_main(command) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--workers" in capsys.readouterr().out


def test_repeated_cli_call_leaves_no_reference_cycles(tmp_path):
    # a parser built per call left 386 cyclic objects to the collector, so a
    # long run of sweeps held garbage between collections
    argv = ["qsl", "--engine", "analytic", "--steps", "100", "--out", str(tmp_path / "x.csv")]
    assert cli_main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert cli_main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_repeated_evolve_call_leaves_no_reference_cycles(tmp_path):
    # np.savetxt defined a helper class per call and left 15-31 cyclic
    # objects to the collector for every trajectory table
    argv = ["evolve", "--steps", "100", "--out", str(tmp_path / "x.csv")]
    assert cli_main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert cli_main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("module", ["cavityqsl", "cavityqsl.cli"])
def test_python_m_runs_the_cli(module):
    src = str(Path(cavityqsl.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("qsl", "--steps", "100")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 and lines[1].endswith(",ok")
    bad = run("qsl", "--bogus", "1")
    assert bad.returncode == 1
    assert bad.stderr.startswith("error: ")


def test_closed_stdout_exits_1_without_traceback():
    # 300 analytic rows are about 100 KB, more than a pipe buffer holds, so
    # the writer meets the closed pipe while it still has rows to write
    src = str(Path(cavityqsl.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-m", "cavityqsl", "sweep", "--variable", "delta_a",
                           "--range=-1,1,300", "--engine", "analytic"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().decode().strip() == CSV_HEADER
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: output closed before the run finished\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command, to_stdout", [
    (["qsl", "--engine", "analytic", "--out", "/dev/full"], False),
    (["evolve", "--steps", "100", "--out", "/dev/full"], False),
    (["qsl", "--engine", "analytic"], True),
    (["check"], True),
    (["--help"], True),
    (["sweep", "--help"], True),
], ids=["qsl-out", "evolve-out", "qsl-stdout", "check-stdout", "help", "sweep-help"])
def test_full_output_device_exits_1_without_traceback(command, to_stdout):
    src = str(Path(cavityqsl.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "cavityqsl", *command], env=env,
                              stdout=full if to_stdout else subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


def test_other_os_errors_are_not_output_errors(monkeypatch, tmp_path):
    def no_workers(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "run_sweep", no_workers)
    with pytest.raises(OSError):
        cli_main(["sweep", "--variable", "delta_a", "--range", "0,1,2",
                  "--out", str(tmp_path / "x.csv")])


def test_failed_allocation_exits_1(monkeypatch, capsys):
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.91 TiB for an array")

    monkeypatch.setattr(cli, "evolve_master", too_big)
    assert cli_main(["evolve", "--steps", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: Unable to allocate 2.91 TiB for an array\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["qsl", "--engine", "analytic", "--steps", str(10**20)],
    ["qsl", "--engine", "analytic", "--steps", str(10**18)],
    ["evolve", "--steps", str(10**20)],
    ["evolve", "--steps", str(10**18)],
    ["sweep", "--variable", "delta_a", "--range", "0,1,2", "--steps", str(10**20)],
    ["sweep", "--variable", "delta_a", "--range", "0,1,2", "--steps", str(10**18)],
    ["evolve", "--cutoff", str(10**9)],
], ids=["qsl-analytic-1e20", "qsl-analytic-1e18", "evolve-1e20", "evolve-1e18",
        "sweep-1e20", "sweep-1e18", "evolve-cutoff-1e9"])
def test_counts_numpy_cannot_size_exit_1(command, capsys):
    assert cli_main(command) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_exit_code_for_numerical_failure(tmp_path):
    code = cli_main(["qsl", "--r_e", "0.25", "--kappa", "0.3", "--tau", "2.0",
                     "--cutoff", "1", "--steps", "400",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_cli_check_passes(capsys):
    assert cli_main(["check", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 3


def test_cli_check_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_checks", lambda seed: [("norm-ordering", False, "broken")])
    assert cli_main(["check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "FAIL norm-ordering: broken\n"
    assert captured.err == "numerical failure: self-check failed\n"


def test_run_checks_structure():
    results = run_checks(seed=11)
    assert [name for name, _, _ in results] == [
        "norm-ordering", "noise-cancellation", "closed-form-vs-oracle"]
    assert all(ok for _, ok, _ in results)


# ---- sweep keys: config lines and flags agree ----

# One non-default value per SWEEP_KEYS key, together a valid sweep.
SWEEP_VALUES = {
    "variable": "delta_a", "range": "-1, 1, 2",
    "second_variable": "r_p", "second_range": "0, 0.2, 2",
    "constraint_mode": "fig2_constrained", "engine": "both",
    "cutoff": "3", "steps": "150",
}


def _spec_from_cli(monkeypatch, argv):
    seen = []
    monkeypatch.setattr(cli, "run_sweep", lambda spec, workers: seen.append(spec) or [])
    assert cli_main(argv) == 0
    return seen[0]


@pytest.mark.parametrize("key", list(SWEEP_KEYS))
def test_sweep_key_as_flag_matches_config_line(key, tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in SWEEP_VALUES.items() if k != key))
    spec = _spec_from_cli(monkeypatch, ["sweep", "--config", str(cfg),
                                        f"--{key}", SWEEP_VALUES[key],
                                        "--out", str(tmp_path / "out.csv")])
    # every value differs from the default, so equality shows the flag was read
    assert spec == build_sweep_spec(dict(SWEEP_VALUES))


@pytest.mark.parametrize("key", ["cutoff", "steps"])
def test_sweep_bad_integer_exits_1(key, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"variable = delta_a\nrange = 0, 1, 2\n{key} = 2.5\n")
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    assert cli_main(["sweep", "--variable", "delta_a", "--range", "0, 1, 2",
                     f"--{key}", "many"]) == 1
    assert f"bad value for {key}" in capsys.readouterr().err


# ---- failures land in rows or exit codes, never in tracebacks ----

def test_lapack_failure_in_sweep_gives_no_convergence_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    with np.errstate(all="ignore"):
        code = cli_main(["sweep", "--variable", "delta_a", "--range", "0,1,2",
                         "--gamma", "1e300", "--engine", "master",
                         "--steps", "100", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert all(line.endswith(",error:NoConvergence") for line in lines[1:])


def test_lapack_failure_in_qsl_exits_2(tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = cli_main(["qsl", "--delta_a", "1e200", "--engine", "master",
                         "--steps", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err


def test_nan_state_is_an_error_row_not_frozen(tmp_path):
    out = tmp_path / "sweep.csv"
    with np.errstate(all="ignore"):
        code = cli_main(["sweep", "--variable", "delta_a", "--range", "1e199,1e200,2",
                         "--engine", "analytic", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "nan" not in text
    for line in text.strip().split("\n")[1:]:
        flag = line.rsplit(",", 1)[1]
        assert flag.startswith("error:")
        assert issubclass(getattr(cavityqsl.errors, flag[len("error:"):]), NumericalError)



# a fuzz point whose cutoff 12 rerun is RK4-unstable at 2000 steps while the
# cutoff 10 run is not: it used to read as a truncation failure at distance
# 1.2e191, after a numpy overflow warning
UNSTABLE_RERUN = SystemParams(g=49.962989696152846, delta_a=-4.501924659092477,
                              theta_p=0.20924688941484645, kappa=19.859707117645705,
                              r_e=1.4231886291382141e-05, tau=13.716958458202575)
UNSTABLE_MESSAGE = ("master propagation at cutoff 12 is unstable: endpoint eigenvalues "
                    r"\S+, \S+ are off a state by more than 1e-06; reduce the step")


def test_unstable_rerun_is_a_step_failure_row():
    row = engine_row(UNSTABLE_RERUN, "master", 0, 0.0, None, None, 2000)
    assert row.flag == "error:NoConvergence" and row.t_qsl is None
    with pytest.raises(NoConvergence) as failure:
        engine_row(UNSTABLE_RERUN, "master", 0, 0.0, None, None, 2000, catch_errors=False)
    assert re.fullmatch(UNSTABLE_MESSAGE, str(failure.value))


def test_unstable_rerun_prints_one_line_and_no_warning():
    src = str(Path(cavityqsl.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["qsl", "--engine", "master"] + [
        f"--{name}={getattr(UNSTABLE_RERUN, name)!r}"
        for name in ("g", "delta_a", "theta_p", "kappa", "r_e", "tau")]
    point = subprocess.run([sys.executable, "-m", "cavityqsl", *argv], env=env,
                           capture_output=True, text=True, timeout=120)
    assert point.returncode == 2
    lines = point.stderr.splitlines()
    assert len(lines) == 1 and re.fullmatch("numerical failure: " + UNSTABLE_MESSAGE, lines[0])


def test_step_norm_filter_sends_the_unstable_rerun_point_to_the_rerun(monkeypatch):
    # the cutoff 10 run is stable and its truncation certificate, 1.0e-24,
    # would pass the point on its own; h |L'| (5.6 at cutoff 12) stops it
    monkeypatch.setattr("cavityqsl.dynamics.STABLE_STEP_NORM", math.inf)
    assert evolve_master(UNSTABLE_RERUN).conv_dist <= CERTIFIED_DISTANCE


# 1 - tr(rho_0 rho_t) of this |g> start is the RK4 trace drift (9.7e-14),
# not the population that moved (1.3e-18); read as 1 - F, it made the row
# t_qsl = 130 with flag ok
GROUND_DRIFT = SystemParams(g=0.02, r_p=0.0127, delta_a=-0.2032, delta_c=-0.3811,
                            gamma=0.6396, kappa=0.0119, tau=0.0017, alpha=math.pi / 2)


def test_ok_master_row_speed_limit_is_at_most_tau():
    row = engine_row(GROUND_DRIFT, "master", 0, 0.0, None, None, DEFAULT_STEPS)
    assert row.flag != "ok" or row.t_qsl <= GROUND_DRIFT.tau


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


RATE = log_uniform(1e-4, 300.0)
ANGLE = st.floats(0.0, 2.0 * math.pi)


@st.composite
def domain_params(draw):
    """A valid SystemParams: log-uniform rates and detunings (of either sign)
    in [1e-4, 300], tau in [1e-3, 30], a matched or an unmatched reservoir,
    and a start angle of 0, pi/2 or any in [0, pi]."""
    params = SystemParams(
        g=draw(RATE), r_p=draw(st.floats(0.0, 1.5)),
        delta_a=draw(st.sampled_from([1.0, -1.0])) * draw(RATE),
        delta_c=draw(st.sampled_from([1.0, -1.0])) * draw(RATE),
        theta_p=draw(ANGLE), gamma=draw(RATE), kappa=draw(RATE),
        r_e=draw(st.floats(0.0, 1.5)), theta_e=draw(ANGLE), tau=draw(log_uniform(1e-3, 30.0)),
        alpha=draw(st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, math.pi)))
    return matched_reservoir(params) if draw(st.booleans()) else params


# The speed limit is a lower bound on tau, up to the trapezoid and RK4
# error of the rate averages: 1.1e-3 at worst on an analytic row at
# kappa = 185, where the grid under-resolves the decay.
TAU_BOUND_TOL = 2e-3


@settings(max_examples=30, deadline=None)
@given(params=domain_params())
def test_engine_row_never_raises_or_warns_over_the_domain(params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = [engine_row(params, engine, 0, 0.0, None, None, DEFAULT_STEPS)
                for engine in engines_of("both")]
    for row in rows:
        if row.flag in ("ok", "frozen"):
            assert row.t_op >= row.t_hs >= row.t_tr
        if row.flag == "ok":
            assert row.t_qsl <= params.tau * (1.0 + TAU_BOUND_TOL)


def master_outcome(params):
    """The formatted master row of params, or the error it raises."""
    try:
        return format_row(engine_row(params, "master", 0, 0.0, None, None, DEFAULT_STEPS,
                                     catch_errors=False))
    except NumericalError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=30, deadline=None)
@given(params=domain_params())
def test_rerun_on_every_point_writes_the_same_rows(params):
    # certified points skip the cutoff+2 rerun; forcing it everywhere (a
    # certificate of exactly 0.0 still passes a limit of 0) changes no row
    # byte and no error message
    certified = master_outcome(params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("cavityqsl.dynamics.CERTIFIED_DISTANCE", -math.inf)
        assert master_outcome(params) == certified


@settings(max_examples=30, deadline=None)
@given(params=domain_params())
def test_gate_on_every_point_writes_the_same_rows(params):
    # certified points skip the positivity gate; forcing it everywhere
    # changes no row byte and no error message
    certified = master_outcome(params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("cavityqsl.dynamics.CERTIFIED_POSITIVITY", -math.inf)
        assert master_outcome(params) == certified


@settings(max_examples=30, deadline=None)
@given(params=domain_params())
def test_positivity_certificate_is_a_bound_over_the_domain(params):
    # where evolve_master certifies a run, no state of it has an eigenvalue
    # below minus the certificate, up to the round-off of the computed rows
    seen, original = [], dynamics._certificates

    def certificates(*args):
        seen.append(original(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_certificates", certificates)
        try:
            traj = evolve_master(params)
        except NumericalError:
            return
    _, bound = seen[0]
    if bound <= CERTIFIED_POSITIVITY:
        assert traj.min_eigs.min() >= -(bound + 1e-12)


@pytest.mark.parametrize("engine", ["master", "analytic"])
def test_overflow_prints_one_line_and_no_warning(engine):
    # numpy's overflow warnings used to land on stderr above the message
    src = str(Path(cavityqsl.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "cavityqsl", *argv, "--engine", engine,
                               "--steps", "100"], env=env, capture_output=True, text=True,
                              timeout=120)

    point = run("qsl", "--delta_a", "1e308")
    assert point.returncode == 2
    assert point.stderr.splitlines() == [
        "numerical failure: " + ("master" if engine == "master" else "closed-form")
        + " propagation did not converge: non-finite "
        + ("states at cutoff 2" if engine == "master" else "amplitudes")]
    sweep = run("sweep", "--variable", "delta_a", "--range", "1e307,1e308,2")
    assert sweep.returncode == 0 and sweep.stderr == ""
    rows = sweep.stdout.strip().split("\n")[1:]
    assert len(rows) == 2 and all(row.endswith(",error:NoConvergence") for row in rows)

@pytest.mark.parametrize("command, message", [
    # tanh(2 r_p) rounds to 1 from r_p = 9.5308 on, sinh(2 r_e) overflows past r_e = 355
    (["sweep", "--variable", "r_p", "--range", "0,10,3", "--constraint_mode",
      "fig2_constrained", "--engine", "master", "--steps", "100"],
     "r_p must be below threshold"),
    (["qsl", "--r_p", "400"], "r_p must be below threshold"),
    (["qsl", "--r_e", "400", "--engine", "analytic"], "r_e must be <="),
    (["evolve", "--cutoff", "0"], "cutoff must be >= 1, got 0"),
    (["evolve", "--cutoff", "-2"], "cutoff must be >= 1, got -2"),
    (["qsl", "--cutoff", "0"], "cutoff must be >= 1, got 0"),
    (["qsl", "--engine", "analytic", "--cutoff", "0"], "cutoff must be >= 1, got 0"),
    (["check", "--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["sweep_r_p", "qsl_r_p", "qsl_r_e", "evolve_cutoff", "evolve_negative_cutoff",
        "qsl_cutoff", "qsl_analytic_cutoff", "check_seed"])
def test_out_of_range_input_exits_1(command, message, capsys):
    assert cli_main(command) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_unwritable_out_path_exits_1(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.csv"
    assert cli_main(["qsl", "--steps", "100", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(target) in err


@pytest.mark.parametrize("command, code, prefix, fault", [
    (["evolve", "--cutoff", "0"], 1, "error:", None),
    (["qsl", "--steps", "5"], 1, "error:", None),
    (["qsl", "--cutoff", "0"], 1, "error:", None),
    (["sweep", "--config", str(CONFIGS_DIR / "detuning_sweep.cfg"), "--workers", "0"],
     1, "error:", None),
    # the grid's range check runs when the grid is built
    (["sweep", "--variable", "r_p", "--range", "0,10,3", "--constraint_mode",
      "fig2_constrained", "--engine", "master", "--steps", "100"], 1, "error:", None),
    # the closed form's excited-start rule, for either engine choice that runs it
    (["qsl", "--engine", "analytic", "--alpha", "0.3", "--steps", "100"], 1, "error:", None),
    (["qsl", "--engine", "both", "--alpha", "0.3", "--steps", "100"], 1, "error:", None),
    # the file is emptied at the first write, so a run that fails at any
    # later stage leaves it as it was too
    (["qsl", "--engine", "master", "--delta_a", "1e308", "--steps", "100"],
     2, "numerical failure: master propagation did not converge", None),
    (["evolve", "--steps", "100"], 1, "error: out of memory: ",
     MemoryError("Unable to allocate 2.91 TiB for an array")),
    # an interrupt ends in one line and the shell's 128 + SIGINT
    (["evolve", "--steps", "100"], 130, "error: interrupted", KeyboardInterrupt()),
    (["sweep", "--variable", "delta_a", "--range", "0,1,2", "--engine", "master",
      "--steps", "100"], 130, "error: interrupted", KeyboardInterrupt()),
], ids=["evolve_cutoff", "qsl_steps", "qsl_cutoff", "sweep_workers", "sweep_grid",
        "qsl_analytic_alpha", "qsl_both_alpha", "qsl_numerical_failure", "evolve_out_of_memory",
        "evolve_interrupted", "sweep_interrupted"])
def test_invalid_input_leaves_existing_out_file_unchanged(command, code, prefix, fault,
                                                          tmp_path, monkeypatch, capsys):
    def failing_engine(*args, **kwargs):
        raise fault

    if fault is not None:  # the master engine as evolve and sweep look it up
        monkeypatch.setattr(cli, "evolve_master", failing_engine)
        monkeypatch.setattr(sweep, "evolve_master", failing_engine)
    target = tmp_path / "out.csv"
    target.write_bytes(b"kept,bytes\n")
    assert cli_main([*command, "--out", str(target)]) == code
    assert capsys.readouterr().err.startswith(prefix)
    assert target.read_bytes() == b"kept,bytes\n"


@pytest.mark.parametrize("command", [
    ["qsl", "--engine", "both", "--steps", "100"],
    ["evolve", "--steps", "100"],
    ["sweep", "--variable", "delta_a", "--range", "0,1,2", "--steps", "100"],
], ids=["qsl", "evolve", "sweep"])
def test_successful_run_replaces_a_longer_out_file(command, tmp_path, capsys):
    assert cli_main(command) == 0
    expected = capsys.readouterr().out.encode()
    target = tmp_path / "out.csv"
    target.write_bytes(b"x" * (len(expected) + 100_000))
    assert cli_main([*command, "--out", str(target)]) == 0
    assert target.read_bytes() == expected


def test_out_to_dev_null_exits_0(capsys):
    # a device is never truncated
    assert cli_main(["qsl", "--engine", "analytic", "--steps", "100", "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_to_a_fifo_receives_the_whole_csv(tmp_path, capsys):
    command = ["sweep", "--variable", "delta_a", "--range", "0,1,3", "--engine", "analytic",
               "--steps", "100"]
    assert cli_main(command) == 0
    expected = capsys.readouterr().out.encode()
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert cli_main([*command, "--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert received == [expected]


@pytest.mark.parametrize("command, owner, name", [
    (["sweep", "--variable", "delta_a", "--range", "0,1,2"], "sweep", "evaluate_point"),
    (["qsl"], "cli", "engine_row"),
    (["evolve"], "cli", "evolve_master"),
])
def test_unwritable_out_fails_before_any_point(command, owner, name, tmp_path,
                                               monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("a point was evaluated before --out was opened")

    monkeypatch.setattr(getattr(cavityqsl, owner), name, no_compute)
    target = tmp_path / "missing" / "out.csv"
    assert cli_main([*command, "--steps", "100", "--out", str(target)]) == 1
    assert "cannot write output" in capsys.readouterr().err


def test_far_detuned_analytic_point_is_frozen(capsys):
    # the atom barely moves (Bures angle ~1e-8); the detuning terms of the
    # rate once left delta_a * eps noise and a spurious `ok` row
    assert cli_main(["qsl", "--delta_a", "1e150", "--engine", "analytic",
                     "--steps", "100"]) == 0
    header, line = capsys.readouterr().out.strip().split("\n")
    row = dict(zip(header.split(","), line.split(",")))
    assert row["flag"] == "frozen"
    assert 0.0 <= float(row["lambda_op"]) <= 1e-140
    assert float(row["t_qsl"]) == 0.0
