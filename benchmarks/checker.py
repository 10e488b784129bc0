"""Checks on the sweep CSV the program writes.

Every grid point is judged on its rows. A point fails when one of its rows
is missing, duplicated, out of grid order, carries an error flag, or breaks
an invariant; failing points are counted, never filtered out. The
invariants are the package's own acceptance rules:

* the header is the pinned `CSV_HEADER`;
* one row per engine per point, in grid order, at the grid's swept values;
* `t_qsl <= tau` and `t_op >= t_hs >= t_tr` (criterion 2 and its slack);
* master rows keep `trace_err <= 1e-9` (the analytic path drops the
  ground refill, so its trace deficit is physical, not an error);
* where both engines run, their per-norm gap stays within 2% (criterion 1);
* against a stored reference, every value agrees to 1e-9 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from workloads import Config

FIELDS = ("index,var1,var2,beta,g_s,delta_s,n_s,abs_m_s,engine,bures,"
          "lambda_op,lambda_tr,lambda_hs,t_op,t_tr,t_hs,t_qsl,cutoff,"
          "steps,trace_err,flag").split(",")
TEXT_FIELDS = ("engine", "flag")
TIMES = ("t_op", "t_tr", "t_hs", "t_qsl")
RATES = ("lambda_op", "lambda_tr", "lambda_hs")

ORDER_SLACK = 1e-12      # criterion 2
TAU_SLACK = 1e-6         # criterion 2
TRACE_ERR_MAX = 1e-9
ENGINE_GAP_MAX = 0.02    # criterion 1
# Tighter than the package's 1e-8 convergence gate, loose enough for a
# different BLAS summation order.
REFERENCE_RTOL = 1e-9
# A state that never moves has rates at round-off; its t_x = sin^2/rate
# is a ratio of two round-off numbers and its flag may be ok or frozen.
ROUNDOFF_RATE = 1e-12


@dataclass
class CheckResult:
    points: int
    failed: set[int] = field(default_factory=set)
    stray_rows: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def failed_points(self) -> int:
        return min(self.points, len(self.failed) + self.stray_rows)

    def fail(self, index: int, message: str) -> None:
        self.failed.add(index)
        if len(self.messages) < 20:
            self.messages.append(f"point {index}: {message}")


def parse_rows(text: str) -> tuple[str, list[dict]]:
    """Header line and one dict per data row (None where a cell is empty)."""
    lines = text.splitlines()
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(FIELDS):
            rows.append({"_bad": line})
            continue
        row: dict = {}
        for name, cell in zip(FIELDS, cells):
            if name in TEXT_FIELDS:
                row[name] = cell
            elif cell == "":
                row[name] = None
            else:
                try:
                    row[name] = float(cell)
                except ValueError:
                    row[name] = math.nan
        rows.append(row)
    return (lines[0] if lines else ""), rows


def _close(a: float | None, b: float | None, rtol: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _row_errors(row: dict, tau: float) -> list[str]:
    if row["flag"] not in ("ok", "frozen"):
        return [f"{row['engine']} flag {row['flag']}"]
    values = [row[name] for name in FIELDS if name not in TEXT_FIELDS + ("var2",)]
    if any(v is None or not math.isfinite(v) for v in values):
        return [f"{row['engine']} row has empty or non-finite values"]
    errors = []
    if row["t_qsl"] > tau + TAU_SLACK:
        errors.append(f"t_qsl {row['t_qsl']!r} > tau {tau!r}")
    if not (row["t_op"] >= row["t_hs"] - ORDER_SLACK
            and row["t_hs"] >= row["t_tr"] - ORDER_SLACK):
        errors.append(f"norm ordering broken: t_op {row['t_op']!r}, "
                      f"t_hs {row['t_hs']!r}, t_tr {row['t_tr']!r}")
    if row["engine"] == "master" and row["trace_err"] > TRACE_ERR_MAX:
        errors.append(f"trace_err {row['trace_err']!r} > {TRACE_ERR_MAX}")
    return errors


def engine_gap(analytic: dict, master: dict, tau: float) -> float:
    """Criterion 1's per-norm gap: relative, or absolute near the dips."""
    slow = master["t_qsl"] >= 0.1 * tau
    return max(abs(analytic[t] - master[t]) / (master[t] if slow else tau)
               for t in ("t_op", "t_tr", "t_hs"))


def _reference_errors(row: dict, ref: dict) -> list[str]:
    if ref["lambda_tr"] is not None and ref["lambda_tr"] <= ROUNDOFF_RATE:
        if row["lambda_tr"] is None or row["lambda_tr"] > ROUNDOFF_RATE:
            return [f"reference state is frozen, lambda_tr now {row['lambda_tr']!r}"]
        skip = TIMES + RATES + ("flag",)
    else:
        skip = ()
    bad = [name for name in FIELDS if name not in skip and
           (row[name] != ref[name] if name in TEXT_FIELDS
            else not _close(row[name], ref[name], REFERENCE_RTOL))]
    return [f"differs from reference in {name}: {row[name]!r} vs {ref[name]!r}"
            for name in bad]


def check_csv(text: str, config: Config, header: str,
              reference: str | None = None,
              engines_must_agree: bool = False) -> CheckResult:
    """Judge one sweep's CSV; `header` is the package's CSV_HEADER."""
    result = CheckResult(points=config.points)
    got_header, rows = parse_rows(text)
    pinned = ",".join(FIELDS)
    if got_header != header or header != pinned:
        result.failed.update(range(config.points))
        result.messages.append(f"header {got_header!r}, CSV_HEADER {header!r}, "
                               f"pinned {pinned!r}")
        return result
    grid = config.grid()
    position = {(i, e): k for k, (i, e) in enumerate(
        (i, e) for i in range(config.points) for e in config.engines)}
    found: dict[tuple[int, str], dict] = {}
    last = -1
    for row in rows:
        index = row.get("index")
        key = None
        if index is not None and math.isfinite(index) and index == int(index):
            key = (int(index), row["engine"])
        if key not in position:
            result.stray_rows += 1
            if len(result.messages) < 20:
                result.messages.append(f"row outside the grid: {row}")
            continue
        index = key[0]
        if key in found:
            result.fail(index, f"duplicate {key[1]} row")
            continue
        found[key] = row
        if position[key] < last:
            result.fail(index, f"{key[1]} row out of grid order")
        last = max(last, position[key])
        var1, var2 = grid[index]
        if not (_close(row["var1"], var1, 1e-12) and _close(row["var2"], var2, 1e-12)):
            result.fail(index, f"swept values {row['var1']!r}, {row['var2']!r} "
                               f"!= grid {var1!r}, {var2!r}")
        for message in _row_errors(row, config.tau):
            result.fail(index, message)
    for key in position:
        if key not in found:
            result.fail(key[0], f"missing {key[1]} row")
    if engines_must_agree:
        for index in range(config.points):
            pair = [found.get((index, e)) for e in ("analytic", "master")]
            if all(r is not None and r["flag"] == "ok" for r in pair):
                gap = engine_gap(pair[0], pair[1], config.tau)
                if gap > ENGINE_GAP_MAX:
                    result.fail(index, f"engine gap {gap:.3e} > {ENGINE_GAP_MAX}")
    if reference is not None:
        _, ref_rows = parse_rows(reference)
        for ref in ref_rows:
            key = (int(ref["index"]), ref["engine"])
            row = found.get(key)
            if row is None:
                continue  # already counted as missing
            for message in _reference_errors(row, ref):
                result.fail(key[0], message)
    return result


def diff_points(text: str, first: str, config: Config) -> set[int]:
    """Grid indices whose rows differ from an earlier run's bytes."""
    if text == first:
        return set()
    a, b = text.splitlines(), first.splitlines()
    if len(a) != len(b) or a[0] != b[0]:
        return set(range(config.points))
    per_point = len(config.engines)
    return {(k - 1) // per_point for k in range(1, len(a)) if a[k] != b[k]}
