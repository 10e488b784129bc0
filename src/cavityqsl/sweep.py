"""Parameter sweeps and CSV emission.

A sweep evaluates the speed limit on a 1-D grid or a 2-D grid (primary
variable fastest, optional second variable outermost), one row per grid
point per engine. Points are independent; they can run on a worker pool
and are always reported in grid order, so output is reproducible down to
the bit regardless of worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from typing import IO, Sequence

import numpy as np

from .dynamics import (DEFAULT_STEPS, MIN_STEPS, Trajectory, analytic_trajectory,
                       evolve_master)
from .errors import NumericalError, ValidationError
from .model import SystemParams, check_cutoff, derive, matched_reservoir
from .model import default_cutoff  # unused: the benchmark tracer wraps this name
from .qsl import QslResult, qsl_time

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
        _check_axis("", self.variable, self.range)
        if (self.second_variable is None) != (self.second_range is None):
            raise ValidationError(
                "second_variable and second_range must be given together")
        if self.second_variable is not None:
            _check_axis("second_", self.second_variable, self.second_range)
            if self.second_variable == self.variable:
                raise ValidationError("second_variable must differ from variable")
        if self.constraint_mode not in MODES:
            raise ValidationError(
                f"constraint_mode must be one of {MODES}, got {self.constraint_mode!r}")
        if self.engine not in ENGINES:
            raise ValidationError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if "analytic" in engines_of(self.engine) and (
                self.base.alpha != 0.0 or "alpha" in (self.variable, self.second_variable)):
            raise ValidationError("engine 'analytic' requires alpha = 0 over the whole sweep")
        if self.constraint_mode == "fig2_constrained" and \
                "delta_c" in (self.variable, self.second_variable):
            raise ValidationError(
                "fig2_constrained recomputes delta_c; sweep it in 'free' mode")
        check_cutoff(self.cutoff)
        if self.steps < MIN_STEPS:
            raise ValidationError(f"steps must be >= {MIN_STEPS}, got {self.steps}")

    @cached_property
    def points(self) -> tuple[tuple[SystemParams, float, float | None], ...]:
        """(params, var1, var2) per grid index, built (and so checked) on first use."""
        swept = tuple(filter(None, (self.variable, self.second_variable)))
        outer = [None] if self.second_range is None else grid_values(self.second_range).tolist()
        points = []
        for var2, var1 in itertools.product(outer, grid_values(self.range).tolist()):
            params = replace(self.base, **dict(zip(swept, (var1, var2))))
            if self.constraint_mode == "fig2_constrained":
                params = _apply_fig2_constraint(params, self.base, swept)
            points.append((params, var1, var2))
        return tuple(points)


def _check_axis(prefix: str, variable: str, rng: tuple[float, float, int]) -> None:
    """One swept axis: `{prefix}variable` and its `{prefix}range`."""
    if variable not in SWEEPABLE:
        raise ValidationError(
            f"{prefix}variable must be one of {SWEEPABLE}, got {variable!r}")
    start, stop, points = rng
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"{prefix}range endpoints must be finite")
    if points < 2:
        raise ValidationError(f"{prefix}range needs points >= 2, got {points}")
    if not start < stop:
        raise ValidationError(f"{prefix}range needs start < stop, got ({start}, {stop})")


@dataclass(frozen=True)
class SweepRow:
    """One grid point under one engine, one CSV line."""

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


# The sweep CSV columns, in order: the SweepRow fields.
CSV_FIELDS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(CSV_FIELDS)
# The speed-limit columns, copied from QslResult by name; frozen becomes the flag.
_QSL_FIELDS = tuple(f.name for f in fields(QslResult) if f.name != "frozen")


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
    if not 0 <= index < len(spec.points):
        raise ValidationError(f"index {index} outside grid of {len(spec.points)}")
    return spec.points[index]


def engine_row(params: SystemParams, engine: str, index: int, var1: float,
               var2: float | None, cutoff: int | None, steps: int,
               catch_errors: bool = True) -> SweepRow:
    """Evaluate one engine at one parameter point; errors land in the row."""
    d = derive(params)
    common = dict(index=index, var1=var1, var2=var2, beta=d.beta, g_s=d.g_s,
                  delta_s=d.delta_s, n_s=d.n_s, abs_m_s=abs(d.m_s), engine=engine)
    try:
        traj = (analytic_trajectory(params, steps) if engine == "analytic"
                else evolve_master(params, cutoff, steps))
        result = qsl_time(traj)
    except (ValidationError, NumericalError) as exc:
        if not catch_errors:
            raise
        return SweepRow(**{**dict.fromkeys(CSV_FIELDS), **common,
                           "flag": f"error:{type(exc).__name__}"})
    return SweepRow(**common, **{name: getattr(result, name) for name in _QSL_FIELDS},
                    cutoff=traj.fock_cutoff, steps=steps, trace_err=traj.trace_err,
                    flag="frozen" if result.frozen else "ok")


def evaluate_point(spec: SweepSpec, index: int) -> list[SweepRow]:
    """All engine rows for one grid point, analytic first."""
    params, var1, var2 = point_params(spec, index)
    return [engine_row(params, engine, index, var1, var2, spec.cutoff, spec.steps)
            for engine in engines_of(spec.engine)]


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate the whole grid, rows in grid order.

    workers > 1 distributes points over processes, never more processes
    than points; each point is computed independently, so the result is
    bit-identical to the sequential run.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    indices = range(len(spec.points))  # builds, and so checks, the whole grid first
    workers = min(workers, len(indices))
    if workers == 1:
        nested = [evaluate_point(spec, i) for i in indices]
    else:
        chunk = max(1, len(indices) // (4 * workers))
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
    atom = traj.rho_atom
    # header order; the complex view gives the (re, im) pairs of ee, eg, ge, gg
    table = np.column_stack((traj.times, atom.reshape(-1, 4).view(float), atom[:, 0, 0].real,
                             atom[:, 1, 1].real, traj.traces, traj.min_eigs))
    np.savetxt(stream, table, fmt="%.17g", delimiter=",", header=TRAJECTORY_HEADER,
               comments="")
