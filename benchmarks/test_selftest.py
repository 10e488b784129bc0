"""Self-test of the benchmark on tiny grids.

    python3 -m pytest benchmarks/test_selftest.py

Shows that the checker passes clean output and fails corrupted output
point by point, that tracing leaves the CSV bytes and the package's names
unchanged, and that configs follow from the seed alone.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

import checker
import run
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, configs, render

MODULES = run.load_package()
HEADER = MODULES["cavityqsl.sweep"].CSV_HEADER


def tiny(name: str, **overrides):
    """A three-point (or 2x2) version of one workload's default config."""
    settings = {"variable": "delta_a", "range": (-4.0, 4.0, 3),
                "constraint_mode": "fig2_constrained", "g": 1.0, "r_p": 0.1,
                "gamma": 1e-3, "kappa": 1e-3, "tau": 1.0}
    settings.update(overrides)
    return render(WORKLOADS[name], DEFAULT_SEED, 0, settings)


@pytest.fixture(scope="module")
def quiet(tmp_path_factory):
    """Clean output of a tiny both-engine sweep, and the runner that made it."""
    config = tiny("fig2_quiet")
    runner = run.SweepRunner(WORKLOADS["fig2_quiet"], [config], MODULES,
                             tmp_path_factory.mktemp("quiet"))
    _, good, text = runner.sweep(0)
    return config, runner, good, text


def _edit_row(text: str, line: int, field: str, value: str) -> str:
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[checker.FIELDS.index(field)] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _failed(text: str, config, **kwargs) -> set[int]:
    return checker.check_csv(text, config, HEADER, **kwargs).failed


def test_clean_output_passes(quiet):
    config, runner, good, text = quiet
    assert runner.failed == 0 and good == config.points == 3
    assert len(text.splitlines()) == 1 + 2 * 3
    assert _failed(text, config, reference=text, engines_must_agree=True) == set()


def test_t_qsl_above_tau_fails_its_point(quiet):
    config, _, _, text = quiet
    bad = _edit_row(text, 4, "t_qsl", repr(config.tau + 0.5))  # point 1, master
    assert _failed(bad, config) == {1}


def test_norm_ordering_and_trace_error_fail(quiet):
    config, _, _, text = quiet
    assert _failed(_edit_row(text, 2, "t_tr", "0.99"), config) == {0}
    assert _failed(_edit_row(text, 6, "trace_err", "1e-6"), config) == {2}


def test_dropped_row_fails_only_its_point(quiet):
    config, _, _, text = quiet
    lines = text.splitlines()
    result = checker.check_csv("\n".join(lines[:3] + lines[4:]) + "\n", config, HEADER)
    assert result.failed == {1}
    assert result.failed_points == 1


def test_reordered_duplicated_and_error_rows_fail(quiet):
    config, _, _, text = quiet
    lines = text.splitlines()
    swapped = [lines[0], lines[3], lines[4], lines[1], lines[2], *lines[5:]]
    assert _failed("\n".join(swapped) + "\n", config)
    duplicated = lines + [lines[-1]]
    assert _failed("\n".join(duplicated) + "\n", config) == {2}
    errored = _edit_row(text, 1, "flag", "error:CutoffNotConverged")
    assert _failed(errored, config) == {0}


def test_bad_header_fails_every_point(quiet):
    config, _, _, text = quiet
    assert _failed(text.replace("t_qsl", "tqsl", 1), config) == {0, 1, 2}


def test_rows_off_the_grid_fail(quiet):
    config, _, _, text = quiet
    shifted = dataclasses.replace(config, range=(-4.0, 4.5, 3))
    assert _failed(text, shifted) == {1, 2}


def test_reference_and_engine_gap_rules(quiet):
    config, _, _, text = quiet
    reference = _edit_row(text, 2, "bures", repr(float(text.splitlines()[2].split(",")[9]) + 1e-6))
    assert _failed(text, config, reference=reference) == {0}
    analytic = checker.parse_rows(text)[1][0]
    master = dict(analytic, engine="master", t_op=analytic["t_op"] * 1.05,
                  t_tr=analytic["t_tr"], t_hs=analytic["t_hs"], t_qsl=analytic["t_qsl"])
    assert checker.engine_gap(analytic, master, config.tau) > checker.ENGINE_GAP_MAX


def test_traced_and_untraced_csv_bytes_match(tmp_path):
    config = tiny("alpha_map_parallel", variable="r_p", range=(0.2, 0.4, 2),
                  second_variable="alpha", second_range=(0.0, math.pi / 2, 2))
    runner = run.SweepRunner(WORKLOADS["alpha_map_parallel"], [config], MODULES, tmp_path)
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _ in tracing.BOUNDARIES}
    _, _, untraced = runner.sweep(0)
    tracer = tracing.Tracer(MODULES)
    with tracer:
        _, _, traced = runner.sweep(0)
    _, _, pooled = runner.sweep(0, workers=2)
    assert traced == untraced == pooled
    assert runner.failed == 0
    assert all(getattr(MODULES[m], a) is f for (m, a), f in originals.items())
    spans = tracer.take()
    metrics = tracing.sweep_layer_metrics(spans)
    assert metrics["dynamics.superop_calls_per_point"] == 2.0
    points = [s for s in spans if s[tracing.NAME] == "sweep.evaluate_point"]
    assert [s[tracing.INDEX] for s in points] == [0, 1, 2, 3]
    assert all(s[tracing.PARENT] >= 0 or s[tracing.NAME] == "cli.cli_main" for s in spans)


def test_self_time_subtracts_children():
    spans = [["a.f", 0.0, 10.0, -1, -1], ["b.g", 1.0, 4.0, 0, -1],
             ["b.h", 5.0, 6.0, 0, -1], ["c.k", 2.0, 3.0, 1, -1]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_configs_follow_the_seed():
    for workload in WORKLOADS.values():
        first = [c.text for c in configs(workload, 7)]
        assert first == [c.text for c in configs(workload, 7)]
        assert first != [c.text for c in configs(workload, 8)]
        assert all(f"seed 7" in text and "steps = 2000" in text for text in first)
        assert "cutoff" not in "".join(first)
