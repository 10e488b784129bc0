"""Command line front end.

Subcommands:
  evolve  integrate one trajectory, write the reduced-state table
  qsl     speed-limit summary for a single parameter point
  sweep   run a sweep from a config file and/or flags
  check   seeded self-test of the core invariants

Exit codes: 0 success, 1 invalid input or config (or output closed early,
or out of memory), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import fields
from typing import IO, Callable, Iterator, NoReturn, Sequence

import numpy as np

from .dynamics import (DEFAULT_STEPS, analytic_coeffs, evolve_master,
                       ode_oracle_coeffs)
from .errors import NumericalError, ValidationError
from .linalg import norms_of_hermitian_stack
from .model import SystemParams, check_cutoff, derive, matched_reservoir
from .sweep import (ENGINES, SweepSpec, engine_row, engines_of, run_sweep,
                    write_sweep_csv, write_trajectory_csv)

PARAM_KEYS = tuple(f.name for f in fields(SystemParams))


def _parse_range(text: str) -> tuple[float, float, int]:
    start, stop, points = text.split(",")
    return float(start), float(stop), int(points)


# Each sweep key (a SweepSpec field) and the converter for its text value.
SWEEP_KEYS = {
    "variable": str,
    "range": _parse_range,
    "second_variable": str,
    "second_range": _parse_range,
    "constraint_mode": str,
    "engine": str,
    "cutoff": int,
    "steps": int,
}


def parse_config(text: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; unknown keys error."""
    allowed = set(PARAM_KEYS) | set(SWEEP_KEYS)
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in allowed:
            raise ValidationError(f"line {lineno}: unknown key {key!r} "
                                  f"(accepted: {', '.join(sorted(allowed))})")
        if key in out:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ValidationError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _convert(key: str, text: str, convert: Callable[[str], object]) -> object:
    try:
        return convert(text)
    except ValueError as exc:
        raise ValidationError(f"bad value for {key}: {text!r} ({exc})") from None


def build_params(settings: dict[str, str]) -> SystemParams:
    kwargs = {key: _convert(key, settings[key], float) for key in PARAM_KEYS
              if key in settings}
    return SystemParams(**kwargs)


def build_sweep_spec(settings: dict[str, str]) -> SweepSpec:
    if "variable" not in settings or "range" not in settings:
        raise ValidationError("a sweep needs both 'variable' and 'range'")
    kwargs = {key: _convert(key, settings[key], convert)
              for key, convert in SWEEP_KEYS.items() if key in settings}
    return SweepSpec(base=build_params(settings), **kwargs)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for name in PARAM_KEYS:
        parser.add_argument(f"--{name}", type=str, default=None, metavar="X")


def _collect_flag_settings(args: argparse.Namespace, keys: Sequence[str]) -> dict[str, str]:
    out = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = str(value)
    return out


@contextlib.contextmanager
def _out_stream(path: str | None) -> Iterator[IO[str]]:
    """stdout, or the file at path, opened (and truncated) before any work
    so that a bad path fails fast; a run that fails later leaves it short."""
    if path is None:
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write output {path!r}: {exc}") from None
    with handle:
        yield handle


def _cmd_evolve(args: argparse.Namespace) -> int:
    params = build_params(_collect_flag_settings(args, PARAM_KEYS))
    with _out_stream(args.out) as stream:
        write_trajectory_csv(evolve_master(params, args.cutoff, args.steps), stream)
    return 0


def _cmd_qsl(args: argparse.Namespace) -> int:
    check_cutoff(args.cutoff)
    params = build_params(_collect_flag_settings(args, PARAM_KEYS))
    with _out_stream(args.out) as stream:
        rows = [engine_row(params, engine, 0, 0.0, None, args.cutoff, args.steps,
                           catch_errors=False)
                for engine in engines_of(args.engine)]
        write_sweep_csv(rows, stream)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings: dict[str, str] = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read config {args.config!r}: {exc}") from None
        settings.update(parse_config(text))
    settings.update(_collect_flag_settings(args, (*PARAM_KEYS, *SWEEP_KEYS)))
    spec = build_sweep_spec(settings)
    with _out_stream(args.out) as stream:
        write_sweep_csv(run_sweep(spec, workers=args.workers), stream)
    return 0


def run_checks(seed: int) -> list[tuple[str, bool, str]]:
    """Fast invariant suite; every entry is (name, passed, detail)."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    ok = True
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = m + m.conj().T
        (op,), (tr,), (hs,) = norms_of_hermitian_stack(m[None])
        # op <= hs <= tr and tr <= sqrt(dim) * hs for any Hermitian matrix
        gap = max(op - hs, hs - tr, tr - math.sqrt(dim) * hs)
        worst = max(worst, gap)
        ok = ok and gap <= 1e-12
    results.append(("norm-ordering", ok, f"worst violation {worst:.3g}"))

    worst = 0.0
    for _ in range(100):
        params = SystemParams(r_p=float(rng.uniform(0.0, 1.5)),
                              theta_p=float(rng.uniform(0.0, 2.0 * math.pi)))
        d = derive(matched_reservoir(params))
        worst = max(worst, abs(d.n_s), abs(d.m_s))
    results.append(("noise-cancellation", worst <= 1e-12, f"residual {worst:.3g}"))

    worst = 0.0
    draws = [(float(rng.uniform(0.5, 3.0)), float(rng.uniform(-10.0, 10.0)),
              float(rng.uniform(-10.0, 10.0)), float(rng.uniform(0.0, 0.1)),
              float(rng.uniform(0.0, 0.1))) for _ in range(5)]
    draws.append((0.01, 1.0, 1.0, 0.05, 0.01))  # splitting root ~ 0
    for g, delta_a, delta_c, gamma, kappa in draws:
        params = SystemParams(g=g, delta_a=delta_a, delta_c=delta_c,
                              gamma=gamma, kappa=kappa)
        for t in (0.3, 1.0):
            exact = analytic_coeffs(params, t)
            oracle = ode_oracle_coeffs(params, t)
            worst = max(worst,
                        abs(exact.excited_amp - oracle.excited_amp),
                        abs(exact.photon_amp - oracle.photon_amp))
    results.append(("closed-form-vs-oracle", worst <= 1e-8, f"max err {worst:.3g}"))
    return results


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_checks(args.seed)
    failed = False
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    if failed:
        raise NumericalError("self-check failed")
    return 0


class _Parser(argparse.ArgumentParser):
    """A malformed command line is invalid input: exit 1, not argparse's 2."""

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavityqsl",
        description="Speed-limit dynamics of a driven atom-cavity model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="integrate one trajectory")
    _add_param_flags(p_evolve)
    p_evolve.add_argument("--cutoff", type=int, default=None)
    p_evolve.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_evolve.add_argument("--out", type=str, default=None)
    p_evolve.set_defaults(func=_cmd_evolve)

    p_qsl = sub.add_parser("qsl", help="speed-limit summary at one point")
    _add_param_flags(p_qsl)
    p_qsl.add_argument("--engine", choices=ENGINES, default="master")
    p_qsl.add_argument("--cutoff", type=int, default=None)
    p_qsl.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_qsl.add_argument("--out", type=str, default=None)
    p_qsl.set_defaults(func=_cmd_qsl)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter sweep")
    p_sweep.add_argument("--config", type=str, default=None)
    _add_param_flags(p_sweep)
    for key in SWEEP_KEYS:
        p_sweep.add_argument(f"--{key}", type=str, default=None)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="run the seeded self-test")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone; send what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before the run finished", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli_main())
