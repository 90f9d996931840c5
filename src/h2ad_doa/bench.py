"""Monte-Carlo RMSE benchmark over SNR / snapshot / subarray-count grids.

Every grid cell runs ``trials`` independent scenarios.  Trial seeds
derive from (master seed, cell, trial) only, and each trial's candidate
sets are computed once and scored by every method, so different methods
consume identical snapshots and compare paired.  Trials that abort
(degenerate spectrum, guard violations) are excluded from the RMSE and
counted in the ``failures`` column.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import time
from dataclasses import astuple, dataclass, fields, replace
from typing import Iterator, Sequence, get_type_hints

import numpy as np

from .array_model import ArrayConfig, ConfigError, check_integer, check_real
from .fusion import (
    WEIGHTING_METHODS,
    AngleOutOfGuardError,
    GroupFailureError,
    NonPositiveCrlbError,
    fuse_candidates,
    fused_crlb,
    group_candidates,
)
from .mbdnn import load_model_for, predict_doa
from .signal_sim import SimScenario, derive_seed

METHODS = WEIGHTING_METHODS + ("mbdnn",)

#: Per-trial failures that end the trial but not the sweep.
TRIAL_ERRORS = (GroupFailureError, AngleOutOfGuardError, NonPositiveCrlbError)


@dataclass(frozen=True)
class BenchSpec:
    """One sweep request.

    Grids multiply: every combination of SNR, snapshot count, and
    uniform subarray count ``K`` becomes a cell.  ``k_grid=None`` keeps
    the configuration's own subarray counts.  Construction checks the
    spec and builds every cell's scenario, so a spec that exists can be
    swept; ``theta0_deg`` must be a real number, ``trials`` an integer of
    at least 1 and ``master_seed`` one of at least 0.
    """

    cfg: ArrayConfig
    theta0_deg: float = 41.0
    snr_grid: tuple[float, ...] = (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    snapshot_grid: tuple[int, ...] = (200,)
    k_grid: tuple[int, ...] | None = None
    trials: int = 200
    methods: tuple[str, ...] = ("crlb_ratio",)
    model_path: str | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        check_real("theta0_deg", self.theta0_deg)
        check_integer("trials", self.trials, 1)
        check_integer("master_seed", self.master_seed, 0)
        empty_k = self.k_grid is not None and not self.k_grid
        if not self.snr_grid or not self.snapshot_grid or empty_k:
            raise ConfigError("empty sweep grid")
        if not self.methods:
            raise ConfigError("no methods to sweep")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}, expected one of {METHODS}")
        if "mbdnn" in self.methods and not self.model_path:
            raise ConfigError("method mbdnn requires a model path")
        # Build every cell's scenario so their checks run before any trial.
        for _ in _cells(self):
            pass


@dataclass(frozen=True)
class ResultRow:
    """One benchmark cell for one method."""

    method: str
    snr_db: float
    snapshots: int
    K: int
    rmse_deg: float
    crlb_fused_deg: float
    trials_used: int
    failures: int
    wall_ms: float


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def compute_rmse(estimates_deg: Sequence[float], theta0_deg: float) -> float:
    """Root-mean-squared error of angle estimates, in degrees; no estimates
    raise ``ValueError``."""
    values = np.asarray(estimates_deg, dtype=float)
    if values.size == 0:
        raise ValueError("no estimates to average")
    return float(np.sqrt(np.mean((values - theta0_deg) ** 2)))


def _cells(spec: BenchSpec) -> Iterator[SimScenario]:
    """Each grid cell's seed-0 scenario, in sweep order."""
    if spec.k_grid is None:
        cfgs = [spec.cfg]
    else:
        cfgs = [replace(spec.cfg, K=tuple(k for _ in spec.cfg.M)) for k in spec.k_grid]
    theta0 = math.radians(spec.theta0_deg)
    for cfg, snapshots, snr in itertools.product(cfgs, spec.snapshot_grid, spec.snr_grid):
        yield SimScenario(cfg, theta0, snr, snapshots)


def _reported_k(cfg: ArrayConfig) -> int:
    # The CSV has one K column; heterogeneous counts report as 0.
    return cfg.K[0] if len(set(cfg.K)) == 1 else 0


def run_sweep(spec: BenchSpec) -> list[ResultRow]:
    """Run the full grid for every requested method.

    A row's ``wall_ms`` is the cell's front-end time plus the method's own.
    The mbdnn model is loaded first, so an unreadable model file raises
    its ``OSError`` or ``ModelFormatError`` before any trial.
    """
    model = load_model_for(spec.cfg, spec.model_path) if "mbdnn" in spec.methods else None
    rows: list[ResultRow] = []
    for cell, base in enumerate(_cells(spec)):
        cfg, theta0, snr, snapshots = base.cfg, base.theta0, base.snr_db, base.snapshots
        try:
            crlb_deg = math.degrees(
                math.sqrt(fused_crlb(cfg, theta0, snr, snapshots).fused_bound)
            )
        except AngleOutOfGuardError:
            # Beyond the guard the exact bound is undefined; the column is
            # informational and crlb_ratio trials still run.
            crlb_deg = float("nan")
        estimates: list[list[float]] = [[] for _ in spec.methods]
        seconds = [0.0] * len(spec.methods)
        front_s = 0.0
        for trial in range(spec.trials):
            start = time.perf_counter()
            scenario = replace(base, seed=derive_seed(spec.master_seed, cell, trial))
            try:
                sets = group_candidates(scenario)
            except GroupFailureError:
                continue  # the trial fails for every method
            finally:
                front_s += time.perf_counter() - start
            for i, method in enumerate(spec.methods):
                start = time.perf_counter()
                try:
                    if method == "mbdnn":
                        estimates[i].append(predict_doa(model, sets))
                    else:
                        est = fuse_candidates(cfg, sets, method, snr, snapshots)
                        estimates[i].append(math.degrees(est.theta_hat))
                except TRIAL_ERRORS:
                    pass  # counted in the failures column
                seconds[i] += time.perf_counter() - start
        for method, used, spent in zip(spec.methods, estimates, seconds):
            rmse = compute_rmse(used, spec.theta0_deg) if used else float("nan")
            rows.append(
                ResultRow(
                    method=method,
                    snr_db=float(snr),
                    snapshots=int(snapshots),
                    K=_reported_k(cfg),
                    rmse_deg=rmse,
                    crlb_fused_deg=crlb_deg,
                    trials_used=len(used),
                    failures=spec.trials - len(used),
                    wall_ms=round((front_s + spent) * 1e3, 3),
                )
            )
    return rows


def emit_csv(rows: Sequence[ResultRow], path=None) -> str:
    """Render rows as CSV, one record per row in field order; optionally
    write to ``path``.

    Floats are written as their ``repr``, so parsing the text back
    reproduces them exactly.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(astuple(row) for row in rows)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse_csv(text: str) -> list[ResultRow]:
    """Inverse of :func:`emit_csv`: each field is cast to its declared type.

    Raises ``ValueError`` for a foreign header, a record with the wrong
    number of fields, a value its field's type cannot take, and text that
    does not end in a newline (a cut-off file).
    """
    if not text.endswith("\n"):
        raise ValueError("benchmark CSV does not end in a newline: the file is cut off")
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected benchmark CSV header {header}")
    casts = list(get_type_hints(ResultRow).values())
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(casts):
            raise ValueError(
                f"benchmark CSV record {record} has {len(record)} fields, "
                f"expected {len(casts)}"
            )
        rows.append(ResultRow(*(cast(value) for cast, value in zip(casts, record))))
    return rows


def emit_plot_data(rows: Sequence[ResultRow], prefix) -> list:
    """Write per-method ``(x, rmse, crlb)`` triples for external plotting.

    The x axis is the grid the rows were swept over: ``snapshots`` when
    they hold more than one snapshot count, otherwise ``K`` when they hold
    more than one ``K``, otherwise ``snr_db``.  Each other grid field that
    holds more than one value splits a method's rows into blocks, in
    first-appearance order; each block opens with a comment naming its
    values (``# snr_db=10.0``), and two blank lines separate blocks, as
    gnuplot's ``index`` expects.  One whitespace-delimited file per
    method, named ``<prefix>.<method>.dat``.  Returns the written paths.
    """
    varied = [f for f in ("snapshots", "K", "snr_db")
              if len({getattr(r, f) for r in rows}) > 1]
    x_field = next((f for f in varied if f != "snr_db"), "snr_db")
    split = [f for f in varied if f != x_field]
    paths = []
    for method in dict.fromkeys(r.method for r in rows):
        blocks: dict[tuple, list[ResultRow]] = {}
        for row in rows:
            if row.method == method:
                blocks.setdefault(tuple(getattr(row, f) for f in split), []).append(row)
        path = f"{prefix}.{method}.dat"
        with open(path, "w") as fh:
            fh.write(f"# {x_field} rmse_deg crlb_fused_deg\n")
            for i, (key, block) in enumerate(blocks.items()):
                if i:
                    fh.write("\n\n")
                if split:
                    fh.write("# " + " ".join(f"{f}={v}" for f, v in zip(split, key)) + "\n")
                for row in block:
                    fh.write(
                        f"{getattr(row, x_field)} {row.rmse_deg!r} "
                        f"{row.crlb_fused_deg!r}\n"
                    )
        paths.append(path)
    return paths
