"""Acceptance runs for the whole package.

Ten numbered criteria, each printing one line with the measured value and
PASS or FAIL. The heavy sweeps are shared module fixtures so the suite
stays under a few minutes end to end.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cavityqsl.dynamics import (analytic_coeffs, complex_form, evolve_master,
                                liouvillian_superoperator, ode_oracle_coeffs)
from cavityqsl.model import (DerivedParams, SystemParams,
                             bosonic_quadratic_spectrum, beta_of, derive)
from cavityqsl.sweep import SweepSpec, grid_values, point_params, run_sweep

HALF_PI = math.pi / 2

# base points for the four standard single-variable sweeps
BASE_DETUNING = SystemParams(g=1.0, r_p=0.1, gamma=1e-3, kappa=1e-3)
BASE_CAVITY = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, gamma=1e-3,
                           kappa=1e-3, r_e=0.1, theta_e=math.pi)
BASE_SQUEEZE = SystemParams(g=1.0, delta_a=2.0, gamma=1e-3, kappa=1e-3)
BASE_COUPLING = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, gamma=1e-3, kappa=1e-3)

SWEEP_SPECS = {
    "delta_a": SweepSpec(variable="delta_a", range=(-10.0, 10.0, 201),
                         base=BASE_DETUNING, constraint_mode="fig2_constrained",
                         engine="both"),
    "delta_c": SweepSpec(variable="delta_c", range=(-10.0, 10.0, 201),
                         base=BASE_CAVITY, constraint_mode="free",
                         engine="both"),
    "r_p": SweepSpec(variable="r_p", range=(0.0, 1.5, 201),
                     base=BASE_SQUEEZE, constraint_mode="fig2_constrained",
                     engine="both"),
    "g": SweepSpec(variable="g", range=(1.0, 3.0, 201),
                   base=BASE_COUPLING, constraint_mode="fig2_constrained",
                   engine="both"),
}


def _verdict(num, ok, detail):
    print(f"criterion {num}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def master_quality():
    """(min eig, herm err) of every master trajectory the sweep fixtures
    compute, in the order computed: SweepRow does not carry them."""
    return []


def _hermiticity_error(traj):
    """max |s(i, j) - conj s(j, i)| over the joint states of a master
    trajectory, the imaginary parts of the diagonal entries included; an
    entry whose transpose lies outside the support is compared with 0."""
    dim = 2 * (traj.fock_cutoff + 1)
    rows, cols = np.divmod(traj.block.idx, dim)
    full = np.zeros((len(traj.times), dim * dim), dtype=complex)
    joint = complex_form(traj.coords, traj.block.diagonal)
    full[:, cols * dim + rows] = np.conj(joint)
    return float(np.abs(joint - full[:, traj.block.idx]).max())


def _recorded_sweep(spec, quality):
    """run_sweep(spec), appending to quality the min eig and the measured
    hermiticity error of each master trajectory it computes."""
    def recording(*args, **kwargs):
        traj = evolve_master(*args, **kwargs)
        quality.append((float(traj.min_eigs.min()), _hermiticity_error(traj)))
        return traj

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("cavityqsl.sweep.evolve_master", recording)
        return run_sweep(spec)


@pytest.fixture(scope="module")
def standard_sweeps(master_quality):
    """The four single-variable curves, both engines, with wall times."""
    out = {}
    for name, spec in SWEEP_SPECS.items():
        start = time.perf_counter()
        rows = _recorded_sweep(spec, master_quality)
        out[name] = (spec, rows, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def tilted_sweep(master_quality):
    """Detuning sweep restarted from an equal superposition, master only."""
    spec = SweepSpec(variable="delta_a", range=(-10.0, 10.0, 101),
                     base=replace(BASE_DETUNING, alpha=math.pi / 4),
                     constraint_mode="fig2_constrained", engine="master")
    return spec, _recorded_sweep(spec, master_quality)


@pytest.fixture(scope="module")
def angle_maps(master_quality):
    """Two-variable grids over the initial angle, for the monotonicity runs."""
    spec_rp = SweepSpec(variable="r_p", range=(0.1, 1.4, 27),
                        base=BASE_SQUEEZE, constraint_mode="fig2_constrained",
                        engine="master", second_variable="alpha",
                        second_range=(0.0, HALF_PI, 13))
    spec_g = SweepSpec(variable="g", range=(1.0, 3.0, 26),
                       base=BASE_COUPLING, constraint_mode="fig2_constrained",
                       engine="master", second_variable="alpha",
                       second_range=(0.0, HALF_PI, 13))
    return {"r_p": (spec_rp, _recorded_sweep(spec_rp, master_quality)),
            "g": (spec_g, _recorded_sweep(spec_g, master_quality))}


@pytest.fixture(scope="module")
def slice_maps(master_quality):
    """Small maps with alpha in {0, pi/4, pi/2} plus matching 1-D sweeps."""
    out = {}
    for name, big in SWEEP_SPECS.items():
        lo, hi, _ = big.range
        map_spec = SweepSpec(variable=name, range=(lo, hi, 21), base=big.base,
                             constraint_mode=big.constraint_mode,
                             engine="master", second_variable="alpha",
                             second_range=(0.0, HALF_PI, 3))
        lines = {}
        for alpha in (0.0, math.pi / 4):
            line_spec = SweepSpec(variable=name, range=(lo, hi, 21),
                                  base=replace(big.base, alpha=alpha),
                                  constraint_mode=big.constraint_mode,
                                  engine="master")
            lines[alpha] = _recorded_sweep(line_spec, master_quality)
        out[name] = (_recorded_sweep(map_spec, master_quality), lines)
    return out


def _master_rows(standard_sweeps, tilted_sweep, angle_maps, slice_maps):
    rows = []
    for _, sweep_rows, _ in standard_sweeps.values():
        rows += [r for r in sweep_rows if r.engine == "master"]
    rows += tilted_sweep[1]
    for _, map_rows in angle_maps.values():
        rows += map_rows
    for map_rows, lines in slice_maps.values():
        rows += map_rows
        for line in lines.values():
            rows += line
    return rows


def test_criterion_1_engines_agree_across_sweeps(standard_sweeps):
    worst = 0.0
    total_wall = 0.0
    for name, (spec, rows, wall) in standard_sweeps.items():
        total_wall += wall
        analytic = [r for r in rows if r.engine == "analytic"]
        master = [r for r in rows if r.engine == "master"]
        tau = spec.base.tau
        for ra, rm in zip(analytic, master):
            assert ra.index == rm.index
            # near the dips the times are tiny, so compare absolutely there
            slow = rm.t_qsl >= 0.1 * tau
            for ta, tm in ((ra.t_op, rm.t_op), (ra.t_tr, rm.t_tr),
                           (ra.t_hs, rm.t_hs)):
                gap = abs(ta - tm)
                worst = max(worst, gap / tm if slow else gap / tau)
    ok = worst <= 0.02 and total_wall < 60.0
    _verdict(1, ok, f"worst per-norm engine gap {worst:.3e} (limit 0.02), "
                    f"total sweep wall {total_wall:.1f}s (limit 60s)")


def test_criterion_2_bound_ordering_everywhere(standard_sweeps, tilted_sweep,
                                               angle_maps, slice_maps):
    rows = _master_rows(standard_sweeps, tilted_sweep, angle_maps, slice_maps)
    rows += [r for _, sweep_rows, _ in standard_sweeps.values()
             for r in sweep_rows if r.engine == "analytic"]
    total = len(rows)
    good = 0
    worst_over = 0.0
    for r in rows:
        assert r.flag in ("ok", "frozen"), r.flag
        ordered = r.t_op >= r.t_hs - 1e-12 and r.t_hs >= r.t_tr - 1e-12
        bounded = r.t_qsl <= 1.0 + 1e-6  # tau = 1 in every fixture
        worst_over = max(worst_over, r.t_qsl - 1.0)
        good += ordered and bounded
    ok = good == total
    _verdict(2, ok, f"ordering and t_qsl <= tau at {good}/{total} points, "
                    f"max t_qsl - tau = {worst_over:.2e}")


def test_master_rows_have_traceless_norm_ratios(standard_sweeps, tilted_sweep):
    # L preserves trace, so a master row's rho_dot_atom has eigenvalues +-w:
    # lambda_tr = 2 lambda_op and lambda_hs = sqrt(2) lambda_op exactly. The
    # analytic engine drops the ground refill, so its rows are exempt.
    rows = [r for _, sweep_rows, _ in standard_sweeps.values()
            for r in sweep_rows if r.engine == "master"] + tilted_sweep[1]
    rows = [r for r in rows if r.flag == "ok"]
    worst = max(max(abs(r.lambda_tr / (2.0 * r.lambda_op) - 1.0),
                    abs(r.lambda_hs / (math.sqrt(2.0) * r.lambda_op) - 1.0))
                for r in rows)
    print(f"traceless norm ratios: worst relative gap {worst:.2e} over "
          f"{len(rows)} ok master rows (limit 1e-12)")
    assert rows and worst <= 1e-12


def test_criterion_3_plateau_and_dip(standard_sweeps):
    spec, rows, _ = standard_sweeps["delta_a"]
    master = [r for r in rows if r.engine == "master"]
    delta_s = master[0].delta_s
    var = np.array([r.var1 for r in master])
    t_op = np.array([r.t_op for r in master])
    plateau = t_op[np.argmin(np.abs(var - delta_s))]
    window = (var >= 2.4 * delta_s) & (var <= 3.6 * delta_s)
    dip = t_op[window].min()
    ok = plateau >= 0.9 and dip <= 0.1
    _verdict(3, ok, f"plateau t_op/tau {plateau:.6f} (>= 0.9), "
                    f"dip {dip:.6f} (<= 0.1)")


def test_criterion_4_map_rows_match_line_sweeps(slice_maps):
    worst = 0.0
    for name, (map_rows, lines) in slice_maps.items():
        n1 = 21
        for alpha, line_rows in lines.items():
            outer = 0 if alpha == 0.0 else 1
            for i, line_row in enumerate(line_rows):
                map_row = map_rows[outer * n1 + i]
                assert map_row.var2 == pytest.approx(alpha, abs=0.0)
                assert map_row.var1 == line_row.var1
                worst = max(worst,
                            abs(map_row.t_qsl - line_row.t_qsl),
                            abs(map_row.bures - line_row.bures))
    ok = worst <= 1e-10
    _verdict(4, ok, f"max |map - line| {worst:.3e} (limit 1e-10)")


def test_criterion_5_orthogonal_start_is_frozen(slice_maps):
    worst_bures = 0.0
    worst_t = 0.0
    count = 0
    for name, (map_rows, _) in slice_maps.items():
        for r in map_rows:
            if r.var2 == pytest.approx(HALF_PI, abs=0.0):
                count += 1
                # the state does not move: its Bures angle is exactly 0,
                # or its rate average is round-off
                assert r.flag == "frozen", (name, r.var1, r.flag)
                worst_bures = max(worst_bures, r.bures)
                worst_t = max(worst_t, r.t_qsl)
    ok = count == 84 and worst_bures <= 1e-6 and worst_t <= 1e-6
    _verdict(5, ok, f"{count} orthogonal-start points, max angle "
                    f"{worst_bures:.2e} (<= 1e-6), max t_qsl {worst_t:.2e}")


def test_criterion_6_closed_form_against_oracle():
    rng = np.random.default_rng(20260816)
    cases = [SystemParams(g=0.01, delta_a=1.0, delta_c=1.0,
                          gamma=0.05, kappa=0.01)]  # splitting root exactly 0
    while len(cases) < 20:
        cases.append(SystemParams(
            g=float(rng.uniform(0.5, 3.0)),
            delta_a=float(rng.uniform(-10.0, 10.0)),
            delta_c=float(rng.uniform(-10.0, 10.0)),
            gamma=float(rng.uniform(0.0, 0.1)),
            kappa=float(rng.uniform(0.0, 0.1))))
    assert abs(analytic_coeffs(cases[0], 0.5).splitting_root) < 1e-6
    worst = 0.0
    for p in cases:
        for t in (0.25, 0.61, 1.0):
            exact = analytic_coeffs(p, t)
            oracle = ode_oracle_coeffs(p, t)
            worst = max(worst, abs(exact.excited_amp - oracle.excited_amp),
                        abs(exact.photon_amp - oracle.photon_amp))
    ok = worst <= 1e-8
    _verdict(6, ok, f"max closed-form error {worst:.3e} over 20 draws (limit 1e-8)")


def dense_superoperator(params, derived, cutoff):
    """The dense L: the entries of liouvillian_superoperator scattered into zeros."""
    rows, cols, values = liouvillian_superoperator(params, derived, cutoff)
    size = (2 * (cutoff + 1)) ** 2
    dense = np.zeros((size, size), dtype=complex)
    dense[rows, cols] = values
    return dense


def test_criterion_7_matched_reservoir_cancellation():
    rng = np.random.default_rng(7)
    worst = 0.0
    worst_gen = 0.0
    for _ in range(100):
        r_p = float(rng.uniform(0.0, 1.5))
        # matched drive: equal squeeze strengths, phases 0 and pi
        p = SystemParams(g=1.0, r_p=r_p, theta_p=0.0, delta_a=1.0,
                         delta_c=2.0, gamma=0.05, kappa=0.03, r_e=r_p,
                         theta_e=math.pi)
        d = derive(p)
        worst = max(worst, abs(d.n_s), abs(d.m_s))
        full = dense_superoperator(p, d, 3)
        plain = dense_superoperator(
            p, DerivedParams(beta=d.beta, g_s=d.g_s, delta_s=d.delta_s,
                             n_s=0.0, m_s=0j), 3)
        worst_gen = max(worst_gen, float(np.abs(full - plain).max()))
    ok = worst == 0.0 and worst_gen == 0.0
    _verdict(7, ok, f"noise residual {worst:.3e}, generator residual "
                    f"{worst_gen:.3e} over 100 draws (required exactly 0)")


def test_criterion_8_squeezed_mode_spectrum():
    delta_c, r_p = 2.0, 0.1
    beta = beta_of(r_p)
    delta_s = delta_c * math.sqrt(1.0 - beta * beta)
    levels = bosonic_quadratic_spectrum(delta_c, beta * delta_c, cutoff=60)
    gaps = np.diff(levels)[:5]
    worst = float(np.abs(gaps - delta_s).max() / delta_s)
    ok = worst <= 1e-3
    _verdict(8, ok, f"max relative gap error {worst:.3e} at cutoff 60 (limit 1e-3)")


def test_criterion_9_trajectory_quality(standard_sweeps, tilted_sweep,
                                        angle_maps, slice_maps, master_quality):
    rows = _master_rows(standard_sweeps, tilted_sweep, angle_maps, slice_maps)
    # one recorded trajectory per master row, none sampled or dropped
    assert len(master_quality) == len(rows)
    worst_trace = max(r.trace_err for r in rows)
    worst_herm = max(herm for _, herm in master_quality)
    worst_eig = min(eig for eig, _ in master_quality)
    richardson = 0.0
    for spec in SWEEP_SPECS.values():
        params, _, _ = point_params(spec, spec.range[2] // 2)
        coarse = evolve_master(params, steps=1000)
        fine = evolve_master(params, steps=2000)
        richardson = max(richardson,
                         float(np.abs(coarse.rho_atom[-1] - fine.rho_atom[-1]).max()))
    ok = (worst_trace <= 1e-9 and worst_herm <= 1e-10
          and worst_eig >= -1e-9 and richardson <= 1e-9)
    _verdict(9, ok, f"trace {worst_trace:.2e} (<=1e-9), herm {worst_herm:.2e} "
                    f"(<=1e-10), min eig {worst_eig:.2e} (>=-1e-9), "
                    f"step-halving {richardson:.2e} (<=1e-9)")


def test_criterion_10_angle_average_monotone(angle_maps):
    fractions = {}
    for name, (spec, rows) in angle_maps.items():
        n1 = spec.range[2]
        n2 = spec.second_range[2]
        t = np.array([r.t_qsl for r in rows]).reshape(n2, n1)
        averaged = t.mean(axis=0)
        drops = np.diff(averaged) <= 1e-12
        fractions[name] = float(drops.mean())
    ok = all(f >= 0.9 for f in fractions.values())
    detail = ", ".join(f"{k}: {v:.0%} non-increasing" for k, v in fractions.items())
    _verdict(10, ok, detail + " (limit 90%)")
