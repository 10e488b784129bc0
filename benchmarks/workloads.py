"""Seeded sweep configs for the four benchmark workloads.

Each workload turns a seed into one or more `key = value` config files of
the kind `cavityqsl sweep --config` reads. The seed jitters grid endpoints
and the loss rates inside ranges where every point converges at the
default Fock cutoff; grid sizes, `steps = 2000` and the cutoff rule are
fixed, so the work per sweep is the same for every seed. The program sees
only the generated text; the seed is recorded in a comment line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
STEPS = 2000
HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Config:
    """One generated sweep config and the facts the checker needs about it."""

    text: str
    range: tuple[float, float, int]
    second_range: tuple[float, float, int] | None
    engines: tuple[str, ...]
    tau: float

    @property
    def points(self) -> int:
        return self.range[2] * (self.second_range[2] if self.second_range else 1)

    def grid(self) -> list[tuple[float, float | None]]:
        """(var1, var2) per grid index, the first variable running fastest."""
        first = np.linspace(*self.range)
        if self.second_range is None:
            return [(float(v), None) for v in first]
        second = np.linspace(*self.second_range)
        return [(float(v1), float(v2)) for v2 in second for v1 in first]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[np.random.Generator], list[dict]]
    engine: str
    parallel: bool = False
    # the acceptance rule that analytic and master agree per norm within 2%
    engines_must_agree: bool = False


def _fmt_range(rng: tuple[float, float, int]) -> str:
    return f"{rng[0]!r}, {rng[1]!r}, {rng[2]}"


def render(workload: Workload, seed: int, k: int, settings: dict) -> Config:
    """Config text for one settings dict, with the seed in a comment line."""
    lines = [f"# benchmark workload {workload.name}, seed {seed}, config {k}",
             f"engine = {workload.engine}", f"steps = {STEPS}"]
    for key, value in settings.items():
        if key in ("range", "second_range"):
            value = _fmt_range(value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    engines = ("analytic", "master") if workload.engine == "both" else (workload.engine,)
    return Config(text="\n".join(lines) + "\n", range=settings["range"],
                  second_range=settings.get("second_range"),
                  engines=engines, tau=settings["tau"])


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _losses(rng: np.random.Generator) -> dict:
    # small enough that the closed form (which drops the ground refill)
    # stays within the 2% engine-agreement rule
    return {"gamma": _u(rng, 5e-4, 2e-3), "kappa": _u(rng, 5e-4, 2e-3)}


def _fig2_quiet(rng: np.random.Generator) -> list[dict]:
    common = {"constraint_mode": "fig2_constrained", "g": 1.0, "tau": 1.0}
    delta_a = {"variable": "delta_a",
               "range": (_u(rng, -10.5, -9.5), _u(rng, 9.5, 10.5), 21),
               "r_p": _u(rng, 0.05, 0.15), **common, **_losses(rng)}
    r_p = {"variable": "r_p",
           "range": (_u(rng, 0.0, 0.05), _u(rng, 1.45, 1.5), 21),
           "delta_a": _u(rng, 1.5, 2.5), **common, **_losses(rng)}
    common.pop("g")
    g = {"variable": "g", "range": (_u(rng, 0.95, 1.05), _u(rng, 2.95, 3.05), 21),
         "r_p": _u(rng, 0.05, 0.15), "delta_a": _u(rng, 1.5, 2.5),
         **common, **_losses(rng)}
    return [delta_a, r_p, g]


def _noisy_master(rng: np.random.Generator) -> list[dict]:
    # r_e = 0 leaves n_s = sinh(r_p)^2 > 0, so every point takes cutoff 10
    return [{"variable": "r_p", "range": (_u(rng, 0.05, 0.1), _u(rng, 0.25, 0.35), 2),
             "constraint_mode": "free", "g": 1.0, "delta_a": _u(rng, 1.5, 2.5),
             "delta_c": _u(rng, 2.5, 3.5), "r_e": 0.0, "theta_p": 0.0,
             "gamma": _u(rng, 5e-4, 2e-3), "kappa": _u(rng, 0.04, 0.06),
             "tau": 1.0}]


def _analytic_map(rng: np.random.Generator) -> list[dict]:
    return [{"variable": "delta_a",
             "range": (_u(rng, -10.5, -9.5), _u(rng, 9.5, 10.5), 41),
             "second_variable": "r_p",
             "second_range": (_u(rng, 0.0, 0.05), _u(rng, 1.45, 1.5), 11),
             "constraint_mode": "fig2_constrained", "g": 1.0, "tau": 1.0,
             **_losses(rng)}]


def _alpha_map(rng: np.random.Generator) -> list[dict]:
    # alpha ends exactly at pi/2, where the atom starts in |g> and never moves
    return [{"variable": "r_p",
             "range": (_u(rng, 0.1, 0.15), _u(rng, 1.35, 1.4), 9),
             "second_variable": "alpha", "second_range": (0.0, HALF_PI, 5),
             "constraint_mode": "fig2_constrained", "g": 1.0,
             "delta_a": _u(rng, 1.5, 2.5), "tau": 1.0, **_losses(rng)}]


WORKLOADS = {w.name: w for w in (
    Workload("fig2_quiet",
             "the paper's constrained curves with both engines at cutoff 2, "
             "where per-point overhead of the small master run dominates",
             _fig2_quiet, engine="both", engines_must_agree=True),
    Workload("noisy_master",
             "unmatched reservoir at cutoff 10: the only BLAS-bound, "
             "memory-heavy big-Liouvillian path",
             _noisy_master, engine="master"),
    Workload("analytic_map",
             "delta_a x r_p heatmap on the closed form: never runs master, so "
             "qsl, linalg and sweep overheads dominate",
             _analytic_map, engine="analytic"),
    # Runnable, but left out of BENCHMARK.json: with default BLAS threads
    # two workers oversubscribe the cores and its sweep rate varies by
    # several times from run to run, far beyond any usable bound.
    Workload("alpha_map_parallel",
             "r_p x alpha master map with superposition starts on a process "
             "pool of nproc workers, with no BLAS thread override",
             _alpha_map, engine="master", parallel=True),
)}


def configs(workload: Workload, seed: int) -> list[Config]:
    """The seed's configs for one workload; the same seed gives the same text."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    return [render(workload, seed, k, settings)
            for k, settings in enumerate(workload.make(rng))]


def pool_workers() -> int:
    """nproc, but at least 2 so that the process-pool path always runs."""
    return max(2, len(os.sched_getaffinity(0)))
