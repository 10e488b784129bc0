"""Sweep benchmark for cavityqsl.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Builds seeded sweep configs for one workload (see workloads.py), runs them
through the public entry point `cavityqsl.cli.cli_main(["sweep", ...])`
for about S seconds, and checks every output row (checker.py).

--trace 0 reports the end-to-end metrics:
  setup_s       median wall time of a fresh interpreter that imports
                cavityqsl and parses the config, the cost a CLI user pays
                on every run (several spawns per run)
  points_per_s  points whose rows pass every check, divided by the wall
                time from the cli_main call to the CSV being closed;
                median over the sweeps of the run
  peak_rss_mb   peak resident memory of the sweep process or its largest
                worker
  fail_frac     failed points / attempted points; printed and carried in
                the result's `failed` and `attempted` fields
--trace 1 reports per-layer metrics from a traced run (tracing.py): one
process-pool sweep at nproc workers, then alternating untraced and traced
serial sweeps.

The package is imported from `src/` next to this directory, never from an
installed copy. The last stdout line is one JSON object; stdout also
carries an `env` line, and `.bench_out/` gets the full result record and
the spans of a traced run. The exit code is 1 when any check failed and 2
when the package is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checker
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Config, Workload, configs, pool_workers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT_DIR = ROOT / ".bench_out"

SETUP_SPAWNS = 11
MIN_SWEEPS = 3
MIN_TRACED_CYCLES = 2

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import cavityqsl; "
              "from cavityqsl.cli import build_sweep_spec, parse_config; "
              "build_sweep_spec(parse_config(open(sys.argv[2]).read()))")

PER_LAYER_UNITS = {
    "sweep.point_ms_p50": "ms", "sweep.point_ms_p95": "ms",
    "sweep.self_s": "s", "sweep.write_csv_s": "s",
    "sweep.pool_speedup": "x", "sweep.parallel_csv_identical": "flag",
    "cli.self_s": "s", "model.build_operators_s": "s",
    "dynamics.evolve_master_ms_p50": "ms", "dynamics.evolve_master_self_s": "s",
    "dynamics.superop_s": "s", "dynamics.superop_calls_per_point": "count",
    "dynamics.positivity_eig_s": "s", "dynamics.analytic_s": "s",
    "linalg.partial_trace_s": "s", "linalg.norms_s": "s",
    "qsl.norms_eig_s": "s", "qsl.qsl_time_s": "s", "qsl.self_s": "s",
    "trace.overhead_frac": "frac",
}


def load_package() -> dict:
    """Import cavityqsl from this checkout's src/ and the modules tracing wraps."""
    if not (SRC / "cavityqsl" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cavityqsl package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(name) for name in
               {module for module, _, _ in tracing.BOUNDARIES}}
    origin = Path(modules["cavityqsl.cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"cavityqsl imported from {origin}, not from {SRC}")
    return modules


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    """Machine and library facts; thread variables as found, never set here."""
    return {
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def measure_setup(config_path: Path) -> list[float]:
    """Wall times of fresh interpreters that import the package and parse a config.

    The first spawn is not timed: it may compile bytecode, which an
    installed package has done before.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)]
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        if spawn:
            times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class SweepRunner:
    """Runs one workload's configs through cli_main and checks every output."""

    def __init__(self, workload: Workload, sweep_configs: list[Config], modules: dict,
                 workdir: Path, references: list[str] | None = None):
        self.workload = workload
        self.cli = modules["cavityqsl.cli"]
        self.header = modules["cavityqsl.sweep"].CSV_HEADER
        self.configs = sweep_configs
        self.workdir = workdir
        self.paths = []
        for k, config in enumerate(sweep_configs):
            path = workdir / f"config{k}.cfg"
            path.write_text(config.text, encoding="utf-8")
            self.paths.append(path)
        self.references = references
        self.first_output: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.pool_matches_serial = True

    def sweep(self, k: int, workers: int = 1) -> tuple[float, int, str]:
        """One checked sweep of config k: (wall seconds, good points, CSV text)."""
        config = self.configs[k]
        out = self.workdir / f"out{k}.csv"
        out.unlink(missing_ok=True)
        argv = ["sweep", "--config", str(self.paths[k]), "--out", str(out),
                "--workers", str(workers)]
        start = time.perf_counter()
        try:
            code = self.cli.cli_main(argv)
        except Exception:  # an escaped traceback fails every point of the sweep
            code = None
            self.messages.append(traceback.format_exc())
        wall = time.perf_counter() - start
        text = out.read_text(encoding="utf-8") if out.is_file() else ""
        result = checker.check_csv(
            text, config, self.header,
            reference=self.references[k] if self.references else None,
            engines_must_agree=self.workload.engines_must_agree)
        if code != 0:
            result.failed.update(range(config.points))
            result.messages.append(f"cli_main returned {code}")
        first = self.first_output.setdefault(k, text)
        changed = checker.diff_points(text, first, config)
        if changed:
            result.failed.update(changed)
            result.messages.append(f"{len(changed)} points differ from the "
                                   f"first sweep of config {k} (workers={workers})")
            if workers > 1:
                self.pool_matches_serial = False
        self.attempted += config.points
        self.failed += result.failed_points
        self.messages.extend(f"config {k}: {m}" for m in result.messages)
        return wall, config.points - result.failed_points, text


def reference_path(workload: Workload, k: int) -> Path:
    return REFERENCE_DIR / f"{workload.name}-{k}.csv"


def load_references(workload: Workload) -> list[str]:
    return [reference_path(workload, k).read_text(encoding="utf-8")
            for k in range(len(configs(workload, DEFAULT_SEED)))]


def run_untraced(runner: SweepRunner, seconds: float, workers: int) -> dict:
    runner.sweep(0, workers)  # warm-up: first-call costs inside numpy/BLAS
    rates, walls = [], []
    start = time.perf_counter()
    while len(rates) < MIN_SWEEPS or time.perf_counter() - start < seconds:
        k = len(rates) % len(runner.configs)
        wall, good, _ = runner.sweep(k, workers)
        rates.append(good / wall)
        walls.append(wall)
    return {"rates": rates, "walls": walls}


def run_traced(runner: SweepRunner, seconds: float, modules: dict) -> dict:
    """One pool sweep, then cycles of untraced and traced serial sweeps.

    The pool sweep runs once: with oversubscribed BLAS threads it can take
    many times the serial wall, and `seconds` must bound the run.
    """
    tracer = tracing.Tracer(modules)
    workers = pool_workers()
    runner.sweep(0)
    start = time.perf_counter()
    pooled = runner.sweep(0, workers)[0]
    serial, traced, per_sweep, all_spans = [], [], [], []
    cycle = 0
    while cycle < MIN_TRACED_CYCLES or time.perf_counter() - start < seconds:
        k = cycle % len(runner.configs)
        serial.append(runner.sweep(k)[0])
        with tracer:
            traced.append(runner.sweep(k)[0])
        spans = tracer.take()
        all_spans.append(spans)
        per_sweep.append(tracing.sweep_layer_metrics(spans))
        cycle += 1
    flat = [s for spans in all_spans for s in spans]
    points = tracing.durations_ms(flat, "sweep.evaluate_point")
    masters = tracing.durations_ms(flat, "dynamics.evolve_master")
    serial_first = serial[::len(runner.configs)]  # same grid as the pool sweep
    metrics = tracing.median_of(per_sweep)
    metrics.update({
        "sweep.point_ms_p50": tracing.percentile(points, 50),
        "sweep.point_ms_p95": tracing.percentile(points, 95),
        "dynamics.evolve_master_ms_p50": tracing.percentile(masters, 50),
        "sweep.pool_speedup": statistics.median(serial_first) / pooled,
        "sweep.parallel_csv_identical": float(runner.pool_matches_serial),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(serial) - 1.0,
    })
    return {"metrics": metrics, "spans": all_spans, "serial": serial,
            "traced": traced, "pooled": [pooled], "pool_workers": workers,
            "point_samples": len(points)}


def _metric_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip()


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    try:
        modules = load_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load cavityqsl: {exc}", file=sys.stderr)
        return 2
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / tag
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    references = load_references(workload) if args.seed == DEFAULT_SEED else None
    runner = SweepRunner(workload, configs(workload, args.seed), modules, workdir,
                         references)
    grid = ", ".join(f"{c.points} points x {len(c.engines)} engine(s)"
                     for c in runner.configs)
    print(f"workload {workload.name}, seed {args.seed}: {len(runner.configs)} "
          f"config(s) of {grid}")
    record: dict = {"workload": workload.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "env": env,
                    "configs": [c.text for c in runner.configs]}
    if args.trace:
        traced = run_traced(runner, args.seconds, modules)
        metrics = {name: (traced["metrics"][name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
        tracing.write_spans(OUT_DIR / f"{tag}.spans.jsonl", traced["spans"])
        print(f"traced run: one {traced['pool_workers']}-worker sweep, "
              f"{len(traced['traced'])} cycles of untraced and traced sweeps; "
              f"{traced['point_samples']} traced points")
        record.update({k: traced[k] for k in ("serial", "traced", "pooled")})
    else:
        workers = pool_workers() if workload.parallel else 1
        setup = measure_setup(runner.paths[0])
        untraced = run_untraced(runner, args.seconds, workers)
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "points_per_s": (statistics.median(untraced["rates"]), "1/s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        print(f"{len(untraced['rates'])} sweeps at workers={workers} in "
              f"{sum(untraced['walls']):.1f} s; setup from {len(setup)} spawns")
        record.update({"setup": setup, **untraced, "workers": workers})
    for name, (value, unit) in metrics.items():
        print(_metric_line(name, value, unit))
    fail_frac = runner.failed / runner.attempted
    print(_metric_line("fail_frac", fail_frac, "1",
                       f"({runner.failed} of {runner.attempted} points)"))
    for message in runner.messages[:20]:
        print(f"check failed: {message}")
    correct = runner.failed == 0
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    record.update(result=result, messages=runner.messages)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter, then one summary."""
    attempted = failed = 0
    correct = True
    metrics: dict = {}
    summary = []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {proc.returncode})")
            return proc.returncode or 2
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and proc.returncode == 0
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        summary.append(f"{name:<20} " + "  ".join(
            f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
            + f"  fail_frac {result['failed'] / result['attempted']:.6g}")
    print(f"summary, seed {args.seed}:", *summary, sep="\n  ")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def write_references(modules: dict) -> None:
    """Store the default seed's outputs as the reference the checker compares to."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        workdir = OUT_DIR / f"reference-{workload.name}"
        workdir.mkdir(parents=True, exist_ok=True)
        runner = SweepRunner(workload, configs(workload, DEFAULT_SEED), modules, workdir)
        for k in range(len(runner.configs)):
            _, _, text = runner.sweep(k)
            reference_path(workload, k).write_text(text, encoding="utf-8")
        if runner.failed:
            raise SystemExit(f"{workload.name}: reference output fails its checks: "
                             f"{runner.messages[:5]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's outputs under reference/")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_references(load_package())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
