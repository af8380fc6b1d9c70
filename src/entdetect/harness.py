"""Batch Monte Carlo driver and persistence.

run_sweep is the one sweep loop: it runs each (d1, d2, k) cell through
run_cell and aggregates the cell's records. run_cell partitions a cell
into blocks of 256 trials and returns evaluate_state's own records, in
trial order, witnesses included. Trial indices are assigned globally
from the configuration, and every trial owns its own RNG stream, so the
emitted numbers are identical for any worker count.

Results are written as CSV next to a JSON manifest holding the
configuration echo, the package version and a checksum of the CSV body.
A run whose CSV still matches its manifest checksum, whose manifest
echoes the same configuration and version, and whose CSV header has the
requested columns, is not recomputed.
"""

import csv
import hashlib
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__
from .criteria import CRITERIA, EPS, check_eps, evaluate_state
from .analytics import aggregate
from .sampling import SampleSpec, sample_reduced_state

BLOCK_SIZE = 256


def csv_columns(criteria=CRITERIA, extra=()):
    """CSV header: extra columns, the cell and counts, then per criterion
    F, its stderr, M and m."""
    return list(extra) + ["d1", "d2", "k", "n", "n_npt"] + [
        f"{c}_{f}" for c in criteria for f in ("F", "F_stderr", "M", "m")
    ]


CSV_COLUMNS = csv_columns()


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a list of (d1, d2, k) cells plus shared run parameters."""

    cells: tuple
    samples_per_cell: int
    master_seed: int
    eps: float = EPS
    workers: int = 1

    def __post_init__(self):
        if self.samples_per_cell < 1:
            raise ValueError("samples_per_cell must be positive")
        check_eps(self.eps)
        for d1, d2, k in self.cells:
            SampleSpec(d1, d2, k, self.master_seed)  # validates the cell

    def to_dict(self):
        return {
            "cells": [list(c) for c in self.cells],
            "samples_per_cell": self.samples_per_cell,
            "master_seed": self.master_seed,
            "eps": self.eps,
        }


def evaluate_trial(d1, d2, k, master_seed, trial_index, eps=EPS):
    """Sample and evaluate a single trial."""
    spec = SampleSpec(d1, d2, k, master_seed, trial_index)
    return evaluate_state(sample_reduced_state(spec), spec=spec, eps=eps)


def _run_block(args):
    d1, d2, k, master_seed, eps, start, stop = args
    return [
        evaluate_trial(d1, d2, k, master_seed, trial, eps)
        for trial in range(start, stop)
    ]


def run_cell(d1, d2, k, n, master_seed, eps=EPS, workers=1):
    """Evaluate ``n`` trials of one cell; returns evaluate_trial's records,
    witnesses included, in trial order."""
    blocks = [
        (d1, d2, k, master_seed, eps, start, min(start + BLOCK_SIZE, n))
        for start in range(0, n, BLOCK_SIZE)
    ]
    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_block, blocks))
    else:
        chunks = [_run_block(b) for b in blocks]
    return [rec for chunk in chunks for rec in chunk]


def run_sweep(config):
    """Run every cell of a SweepConfig; returns a list of SweepStats."""
    stats = []
    for d1, d2, k in config.cells:
        records = run_cell(
            d1, d2, k, config.samples_per_cell, config.master_seed,
            eps=config.eps, workers=config.workers,
        )
        stats.append(aggregate(records, eps=config.eps))
    return stats


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


def stats_row(stats, extra=None):
    row = {} if extra is None else dict(extra)
    row.update(
        d1=stats.d1, d2=stats.d2, k=stats.k, n=stats.n_total, n_npt=stats.n_npt
    )
    for c in CRITERIA:
        cs = stats.per_criterion[c]
        row[f"{c}_F"] = cs.fraction
        row[f"{c}_F_stderr"] = cs.fraction_stderr
        row[f"{c}_M"] = cs.mean_ln
        row[f"{c}_m"] = cs.min_ln
    return row


def render_csv(rows, columns=CSV_COLUMNS):
    """RFC-4180 CSV body (6 significant digits, empty fields for nulls)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    return buf.getvalue()


def checksum(text):
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_results(out_dir, name, rows, config, columns=CSV_COLUMNS, cells_meta=None,
                  started_at=None):
    """Write <name>.csv and its manifest <name>.manifest.json atomically.

    Returns the CSV path. The manifest is written only after the CSV, so
    an interrupted run leaves a recognizably orphan CSV.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, name + ".csv")
    manifest_path = os.path.join(out_dir, name + ".manifest.json")
    body = render_csv(rows, columns)
    manifest = {
        "config": config.to_dict(),
        "version": __version__,
        "started_at": started_at if started_at is not None else time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cells": cells_meta or [],
        "checksum": checksum(body),
    }
    _atomic_write(csv_path, body)
    _atomic_write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return csv_path


def _read_manifest(out_dir, name):
    """The manifest of <name> as a dict; None if it is missing or corrupt."""
    try:
        with open(os.path.join(out_dir, name + ".manifest.json")) as fh:
            manifest = json.load(fh)
    except (FileNotFoundError, ValueError):
        return None
    return manifest if isinstance(manifest, dict) else None


def results_current(out_dir, name, config, columns=CSV_COLUMNS):
    """True iff <name>.csv exists, matches its manifest checksum, has the
    header ``columns``, and the manifest echoes the same configuration and
    package version. A missing or corrupt manifest means recompute."""
    csv_path = os.path.join(out_dir, name + ".csv")
    manifest = _read_manifest(out_dir, name)
    if manifest is None or not os.path.exists(csv_path):
        return False
    if manifest.get("config") != config.to_dict():
        return False
    if manifest.get("version") != __version__:
        return False
    with open(csv_path, newline="") as fh:
        body = fh.read()
    header = next(csv.reader(io.StringIO(body, newline="")), None)
    return header == list(columns) and manifest.get("checksum") == checksum(body)


def find_orphans(out_dir):
    """CSVs lacking a readable manifest or failing its checksum, and .tmp files."""
    orphans = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.endswith((".csv.tmp", ".manifest.json.tmp")):
            orphans.append(entry)
        if not entry.endswith(".csv"):
            continue
        manifest = _read_manifest(out_dir, entry[: -len(".csv")])
        with open(os.path.join(out_dir, entry), newline="") as fh:
            if manifest is None or manifest.get("checksum") != checksum(fh.read()):
                orphans.append(entry)
    return orphans
