"""Parameter sweeps and CSV emission.

A sweep evaluates the speed limit on a 1-D grid or a 2-D grid (primary
variable fastest, optional second variable outermost), one row per grid
point per engine. Points are independent; they can run on a worker pool
and are always reported in grid order, so output is reproducible down to
the bit regardless of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import IO, Sequence

import numpy as np

from .dynamics import (DEFAULT_STEPS, MIN_STEPS, Trajectory, analytic_trajectory,
                       evolve_master)
from .errors import NumericalError, ValidationError
from .model import SystemParams, default_cutoff, derive, matched_reservoir
from .qsl import qsl_time

SWEEPABLE = ("delta_a", "delta_c", "r_p", "g", "alpha")
ENGINES = ("analytic", "master", "both")
MODES = ("free", "fig2_constrained")

# The constrained mode pins the squeezed-picture cavity detuning to this
# multiple of the enhanced coupling, recomputed at every grid point.
CONSTRAINED_DETUNING_RATIO = 3.0


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: grid, engine choice, constraint mode, base parameters."""

    variable: str
    range: tuple[float, float, int]
    base: SystemParams
    constraint_mode: str = "free"
    engine: str = "master"
    second_variable: str | None = None
    second_range: tuple[float, float, int] | None = None
    cutoff: int | None = None     # None: pick per point from the noise level
    steps: int = DEFAULT_STEPS

    def __post_init__(self) -> None:
        if self.variable not in SWEEPABLE:
            raise ValidationError(
                f"variable must be one of {SWEEPABLE}, got {self.variable!r}")
        _check_range("range", self.range)
        if (self.second_variable is None) != (self.second_range is None):
            raise ValidationError(
                "second_variable and second_range must be given together")
        if self.second_variable is not None:
            if self.second_variable not in SWEEPABLE:
                raise ValidationError(
                    f"second_variable must be one of {SWEEPABLE}, got {self.second_variable!r}")
            if self.second_variable == self.variable:
                raise ValidationError("second_variable must differ from variable")
            _check_range("second_range", self.second_range)
        if self.constraint_mode not in MODES:
            raise ValidationError(
                f"constraint_mode must be one of {MODES}, got {self.constraint_mode!r}")
        if self.engine not in ENGINES:
            raise ValidationError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.engine in ("analytic", "both"):
            sweeps_alpha = "alpha" in (self.variable, self.second_variable)
            if sweeps_alpha or self.base.alpha != 0.0:
                raise ValidationError(
                    "engine 'analytic' requires alpha = 0 over the whole sweep")
        if self.constraint_mode == "fig2_constrained" and \
                "delta_c" in (self.variable, self.second_variable):
            raise ValidationError(
                "fig2_constrained recomputes delta_c; sweep it in 'free' mode")
        if self.cutoff is not None and self.cutoff < 1:
            raise ValidationError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.steps < MIN_STEPS:
            raise ValidationError(f"steps must be >= {MIN_STEPS}, got {self.steps}")

    @property
    def points_total(self) -> int:
        n = self.range[2]
        if self.second_range is not None:
            n *= self.second_range[2]
        return n


def _check_range(name: str, rng: tuple[float, float, int]) -> None:
    start, stop, points = rng
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"{name} endpoints must be finite")
    if points < 2:
        raise ValidationError(f"{name} needs points >= 2, got {points}")
    if not start < stop:
        raise ValidationError(f"{name} needs start < stop, got ({start}, {stop})")


@dataclass(frozen=True)
class SweepRow:
    """One grid point under one engine, CSV-ready plus extra diagnostics."""

    index: int
    var1: float
    var2: float | None
    beta: float
    g_s: float
    delta_s: float
    n_s: float
    abs_m_s: float
    engine: str
    bures: float | None
    lambda_op: float | None
    lambda_tr: float | None
    lambda_hs: float | None
    t_op: float | None
    t_tr: float | None
    t_hs: float | None
    t_qsl: float | None
    cutoff: int | None
    steps: int | None
    trace_err: float | None
    flag: str
    # not emitted to CSV, used by validation suites
    min_eig: float | None = None
    herm_err: float | None = None


_ROW_FIELDS = tuple(f.name for f in fields(SweepRow))
# The sweep CSV columns, in order: the SweepRow fields up to flag.
CSV_FIELDS = _ROW_FIELDS[:_ROW_FIELDS.index("flag") + 1]
CSV_HEADER = ",".join(CSV_FIELDS)


def engines_of(engine: str) -> tuple[str, ...]:
    """The engines one ENGINES choice runs, analytic first."""
    return ("analytic", "master") if engine == "both" else (engine,)


def grid_values(rng: tuple[float, float, int]) -> np.ndarray:
    """Inclusive uniform grid."""
    start, stop, points = rng
    return np.linspace(start, stop, points)


def _apply_fig2_constraint(params: SystemParams, base: SystemParams,
                           swept: tuple[str, ...]) -> SystemParams:
    """Re-derive the caption-constrained quantities at one grid point.

    The constrained sweeps keep the squeezed cavity detuning at
    CONSTRAINED_DETUNING_RATIO times the enhanced coupling, keep the
    reservoir matched to the drive (so the effective noise cancels), and
    read fixed detunings as multiples of the coupling (relevant only when
    g itself is swept). Swept variables are never overridden.
    """
    d = derive(params)
    updates = {"delta_c": CONSTRAINED_DETUNING_RATIO * d.g_s / math.sqrt(1.0 - d.beta * d.beta)}
    if "delta_a" not in swept and "g" in swept:
        updates["delta_a"] = base.delta_a * (params.g / base.g)
    return replace(matched_reservoir(params), **updates)


def point_params(spec: SweepSpec, index: int) -> tuple[SystemParams, float, float | None]:
    """Parameters and swept values for one grid index."""
    values = grid_values(spec.range)
    n1 = spec.range[2]
    if spec.second_range is None:
        if not 0 <= index < n1:
            raise ValidationError(f"index {index} outside grid of {n1}")
        var1 = float(values[index])
        var2 = None
        overrides = {spec.variable: var1}
        swept: tuple[str, ...] = (spec.variable,)
    else:
        second_values = grid_values(spec.second_range)
        outer, inner = divmod(index, n1)
        if not 0 <= outer < spec.second_range[2]:
            raise ValidationError(f"index {index} outside grid of {spec.points_total}")
        var1 = float(values[inner])
        var2 = float(second_values[outer])
        overrides = {spec.variable: var1, spec.second_variable: var2}
        swept = (spec.variable, spec.second_variable)
    params = replace(spec.base, **overrides)
    if spec.constraint_mode == "fig2_constrained":
        params = _apply_fig2_constraint(params, spec.base, swept)
    return params, var1, var2


def _run_engine(params: SystemParams, engine: str, cutoff: int | None,
                steps: int) -> tuple[Trajectory, int]:
    if engine == "analytic":
        return analytic_trajectory(params, steps), 1
    used = cutoff if cutoff is not None else default_cutoff(derive(params))
    return evolve_master(params, used, steps), used


def engine_row(params: SystemParams, engine: str, index: int, var1: float,
               var2: float | None, cutoff: int | None, steps: int,
               catch_errors: bool = True) -> SweepRow:
    """Evaluate one engine at one parameter point; errors land in the row."""
    d = derive(params)
    common = dict(index=index, var1=var1, var2=var2, beta=d.beta, g_s=d.g_s,
                  delta_s=d.delta_s, n_s=d.n_s, abs_m_s=abs(d.m_s), engine=engine)
    try:
        traj, used_cutoff = _run_engine(params, engine, cutoff, steps)
        result = qsl_time(traj)
    except (ValidationError, NumericalError) as exc:
        if not catch_errors:
            raise
        return SweepRow(**{**dict.fromkeys(CSV_FIELDS), **common,
                           "flag": f"error:{type(exc).__name__}"})
    return SweepRow(**common, bures=result.bures, lambda_op=result.lambda_op,
                    lambda_tr=result.lambda_tr, lambda_hs=result.lambda_hs,
                    t_op=result.t_op, t_tr=result.t_tr, t_hs=result.t_hs,
                    t_qsl=result.t_qsl, cutoff=used_cutoff, steps=steps,
                    trace_err=traj.trace_err,
                    flag="frozen" if result.frozen else "ok",
                    min_eig=float(traj.min_eigs.min()), herm_err=traj.herm_err)


def evaluate_point(spec: SweepSpec, index: int) -> list[SweepRow]:
    """All engine rows for one grid point, analytic first."""
    params, var1, var2 = point_params(spec, index)
    return [engine_row(params, engine, index, var1, var2, spec.cutoff, spec.steps)
            for engine in engines_of(spec.engine)]


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate the whole grid, rows in grid order.

    workers > 1 distributes points over processes; each point is computed
    independently, so the result is bit-identical to the sequential run.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    indices = range(spec.points_total)
    if workers == 1:
        nested = [evaluate_point(spec, i) for i in indices]
    else:
        chunk = max(1, spec.points_total // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(partial(evaluate_point, spec), indices,
                                   chunksize=chunk))
    return [row for rows in nested for row in rows]


def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return format(value, ".17g")


def format_row(row: SweepRow) -> str:
    return ",".join(_fmt(getattr(row, name)) for name in CSV_FIELDS)


def write_sweep_csv(rows: Sequence[SweepRow], stream: IO[str]) -> None:
    stream.write(CSV_HEADER + "\n")
    for row in rows:
        stream.write(format_row(row) + "\n")


TRAJECTORY_HEADER = ("t,re_ee,im_ee,re_eg,im_eg,re_ge,im_ge,re_gg,im_gg,"
                     "pop_e,pop_g,trace,min_eig")


def write_trajectory_csv(traj: Trajectory, stream: IO[str]) -> None:
    """Reduced-state trajectory table, one line per grid point."""
    stream.write(TRAJECTORY_HEADER + "\n")
    for k in range(len(traj.times)):
        atom = traj.rho_atom[k]
        cells = [traj.times[k]]
        for i in (0, 1):
            for j in (0, 1):
                cells.extend((atom[i, j].real, atom[i, j].imag))
        cells.extend((atom[0, 0].real, atom[1, 1].real,
                      float(traj.traces[k]), float(traj.min_eigs[k])))
        stream.write(",".join(format(c, ".17g") for c in cells) + "\n")
