"""Batch Monte Carlo driver and persistence.

run_sweep is the one sweep loop. Each (d1, d2, k) cell is split into
blocks of 256 trials; with more than one worker, every block of every
cell is submitted, in cell order and block order, to one process pool
per sweep. A cell's records are concatenated in block order and
aggregated at the configuration's eps as soon as its last block is back,
then dropped, so a sweep holds about one cell's records at a time.
run_cell is the one-cell case: it returns evaluate_state's own records,
in trial order; a record holds no eps and no cell, so its caller passes
both to aggregate. Trial indices are assigned globally from the
configuration, and every trial owns its own RNG stream, so the emitted
numbers are identical for any worker count. A block draws its states
through sampling.sample_states, which seeds the block's streams in one
pass.

Results are written as CSV next to a JSON manifest holding the
configuration echo, the package version, a checksum of the CSV body and
a description of the run (workers, CPUs, library versions, wall time).
A run whose CSV still matches its manifest checksum, whose manifest
echoes the same configuration and version, and whose CSV header has the
requested columns, is not recomputed.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .criteria import CRITERIA, EPS, check_eps, evaluate_state
from .analytics import aggregate
from .sampling import SampleSpec, sample_states
# Unused here, but benchmarks/layers.py traces this name on this module.
from .sampling import sample_reduced_state  # noqa: F401

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


def _run_block(args):
    return [evaluate_state(rho) for rho in sample_states(*args)]


def _cell_records(cells, n, master_seed, workers):
    """Yield the records of each cell of ``cells`` in turn, ``n`` trials
    each, in trial order.

    With more than one worker and more than one block in all, every block
    of every cell goes to one pool, and a cell is yielded once its last
    block is back. A failed block, or a caller that stops early, cancels
    the blocks that have not started.
    """
    blocks = [
        [(d1, d2, k, master_seed, start, min(start + BLOCK_SIZE, n))
         for start in range(0, n, BLOCK_SIZE)]
        for d1, d2, k in cells
    ]
    if workers <= 1 or sum(map(len, blocks)) <= 1:
        for cell in blocks:
            yield [rec for block in cell for rec in _run_block(block)]
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pending = deque([pool.submit(_run_block, b) for b in cell] for cell in blocks)
        while pending:
            # popleft, so a cell's block results are freed once yielded
            yield [rec for future in pending.popleft() for rec in future.result()]
    except BaseException:  # GeneratorExit included: the caller stopped early
        pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()


def run_cell(d1, d2, k, n, master_seed, workers=1):
    """Evaluate ``n`` trials of one cell; returns evaluate_state's records
    in trial order."""
    [records] = _cell_records([(d1, d2, k)], n, master_seed, workers)
    return records


def run_sweep(config):
    """Run every cell of a SweepConfig; returns a list of SweepStats."""
    cells = _cell_records(
        config.cells, config.samples_per_cell, config.master_seed, config.workers
    )
    with contextlib.closing(cells):
        # cells first: zip then runs the generator to its end, where it
        # shuts the pool down without cancelling anything
        return [
            aggregate(records, cell, eps=config.eps)
            for records, cell in zip(cells, config.cells)
        ]


def usable_cpu_count():
    """CPUs this process may run on: its affinity mask where the platform
    has one (taskset, cpusets), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_metadata(config, wall_s):
    """The manifest's description of how a sweep ran."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    states = len(config.cells) * config.samples_per_cell
    return {
        "workers": config.workers,
        "cpus": usable_cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "wall_s": wall_s,
        "states_per_s": states / wall_s if wall_s else None,
    }


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
                  started_at=None, wall_s=None):
    """Write <name>.csv and its manifest <name>.manifest.json atomically.

    ``wall_s`` is the sweep's wall time, from which the manifest's ``run``
    entry reports states/s. Returns the CSV path. The manifest is written
    only after the CSV, so an interrupted run leaves a recognizably orphan
    CSV.
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
        "run": _run_metadata(config, wall_s),
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
