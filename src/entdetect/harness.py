"""Batch Monte Carlo driver and persistence.

run_sweep is the one sweep loop. Each (d1, d2, k) cell is split into
blocks of sampling.BLOCK_SIZE trials; with more than one worker, every
block of every cell is submitted, in cell order and block order, to one
process pool per sweep. A block draws its states through
sampling.sample_chunks, whose one seeding pass covers the whole block,
and which builds the states a chunk at a time as one stacked
DensityMatrix; each chunk is evaluated by one evaluate_state call, whose
Records are the chunk's states' own columns, in order. A block's result
is the concatenation of its chunks' Records, and a pool worker sends back
just those two arrays. A cell's blocks are concatenated in block order
and aggregated, as columns, at the configuration's eps as soon as its
last block is back, then dropped, so a sweep holds about one cell's
columns at a time. run_cell is the one-cell case: it returns the cell's
Records in trial order; they hold no eps and no cell, so its caller
passes both to aggregate. Trial indices are assigned globally from the
configuration, and every trial owns its own RNG stream, so the emitted
numbers are identical for any worker count.

This module alone defines the result files. write_results turns a
sweep's SweepStats into a CSV, one row per cell, and writes it next to a
JSON manifest holding the configuration echo, the package version, the
CSV's columns and cells, a sha256 checksum of the CSV's bytes and a
description of the run (workers, CPUs, library versions, wall time).
A run whose CSV bytes still match its manifest checksum, and whose
manifest echoes the same configuration, version and columns, is not
recomputed; a file that cannot be read or decoded means recompute.
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
from dataclasses import dataclass

import numpy as np

from . import __version__
from .criteria import CRITERIA, EPS, Records, check_eps, evaluate_state
from .analytics import aggregate
from .sampling import BLOCK_SIZE, check_cell, check_samples, check_seed, sample_chunks
# Unused here, but benchmarks/layers.py traces this name on this module.
from .sampling import sample_reduced_state  # noqa: F401

# The cell and its counts: the CSV columns that the manifest's cells repeat.
CELL_FIELDS = ("d1", "d2", "k", "n", "n_npt")
# Each criterion's CSV columns, <criterion>_<suffix>: suffix -> CriterionStats field.
CRITERION_FIELDS = {
    "F": "fraction", "F_stderr": "fraction_stderr", "M": "mean_ln", "m": "min_ln",
}

# CSV header: the cell and counts, then each criterion's CRITERION_FIELDS.
CSV_COLUMNS = [
    *CELL_FIELDS, *(f"{c}_{suffix}" for c in CRITERIA for suffix in CRITERION_FIELDS),
]


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a list of (d1, d2, k) cells plus shared run parameters."""

    cells: tuple
    samples_per_cell: int
    master_seed: int
    eps: float = EPS
    workers: int = 1

    def __post_init__(self):
        check_samples(self.samples_per_cell)
        check_seed(self.master_seed)
        check_eps(self.eps)
        for cell in self.cells:
            check_cell(*cell)

    def to_dict(self):
        return {
            "cells": [list(c) for c in self.cells],
            "samples_per_cell": self.samples_per_cell,
            "master_seed": self.master_seed,
            "eps": self.eps,
        }


def _run_block(args):
    return Records.concat([evaluate_state(chunk) for chunk in sample_chunks(*args)])


def _start_pool(workers):
    """A pool of ``workers`` processes. concurrent.futures is imported
    here, so a run that starts no pool never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _cell_records(cells, n, master_seed, workers):
    """Yield the Records of each cell of ``cells`` in turn, ``n`` trials
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
            yield Records.concat([_run_block(block) for block in cell])
        return
    pool = _start_pool(workers)
    try:
        pending = deque([pool.submit(_run_block, b) for b in cell] for cell in blocks)
        while pending:
            # popleft, so a cell's block results are freed once yielded
            yield Records.concat([future.result() for future in pending.popleft()])
    except BaseException:  # GeneratorExit included: the caller stopped early
        pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()


def run_cell(d1, d2, k, n, master_seed, workers=1):
    """Evaluate ``n`` trials of one cell; returns their Records, the
    kernel's own columns, in trial order."""
    check_samples(n)
    [records] = _cell_records([(d1, d2, k)], n, master_seed, workers)
    return records


def run_sweep(config):
    """Run every cell of a SweepConfig; returns a list of SweepStats."""
    cells = _cell_records(
        config.cells, config.samples_per_cell, config.master_seed, config.workers
    )
    with contextlib.closing(cells):
        return [
            aggregate(records, cell, eps=config.eps)
            for records, cell in zip(cells, config.cells, strict=True)
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


def stats_row(stats):
    """A cell's SweepStats by column: CSV_COLUMNS and d12 = d1 * d2."""
    row = dict(d12=stats.d1 * stats.d2, d1=stats.d1, d2=stats.d2, k=stats.k,
               n=stats.n_total, n_npt=stats.n_npt)
    for c in CRITERIA:
        for suffix, field in CRITERION_FIELDS.items():
            row[f"{c}_{suffix}"] = getattr(stats.per_criterion[c], field)
    return row


def render_csv(rows, columns=CSV_COLUMNS):
    """RFC-4180 CSV body (6 significant digits, empty fields for nulls)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    return buf.getvalue()


def checksum(data):
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _atomic_write(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _utc(seconds):
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(seconds))


def write_results(out_dir, name, stats, config, columns=CSV_COLUMNS, *, wall_s):
    """Write the SweepStats ``stats`` as <name>.csv, one stats_row per
    cell restricted to ``columns``, and its manifest
    <name>.manifest.json, each atomically.

    ``wall_s`` is the sweep's wall time: the manifest reports states/s
    from it and dates the start that long before the finish. Returns the
    CSV path. The manifest is written only after the CSV, so an
    interrupted run leaves a recognizably orphan CSV.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, name + ".csv")
    rows = [stats_row(s) for s in stats]
    body = render_csv(rows, columns).encode()
    finished = time.time()
    manifest = {
        "config": config.to_dict(),
        "version": __version__,
        "started_at": _utc(finished - wall_s),
        "finished_at": _utc(finished),
        "columns": list(columns),
        "cells": [{key: row[key] for key in CELL_FIELDS} for row in rows],
        "run": _run_metadata(config, wall_s),
        "checksum": checksum(body),
    }
    _atomic_write(csv_path, body)
    _atomic_write(os.path.join(out_dir, name + ".manifest.json"),
                  (json.dumps(manifest, indent=2) + "\n").encode())
    return csv_path


def _verified_manifest(out_dir, name):
    """The manifest of <name> if <name>.csv's bytes match its checksum;
    None if either file cannot be read or decoded, or they do not match."""
    try:
        with open(os.path.join(out_dir, name + ".manifest.json"), "rb") as fh:
            manifest = json.load(fh)
        with open(os.path.join(out_dir, name + ".csv"), "rb") as fh:
            body = fh.read()
    except (OSError, ValueError):
        return None
    if isinstance(manifest, dict) and manifest.get("checksum") == checksum(body):
        return manifest
    return None


def results_current(out_dir, name, config, columns=CSV_COLUMNS):
    """True iff <name>.csv matches its manifest checksum and the manifest
    echoes the same configuration, package version and ``columns``."""
    manifest = _verified_manifest(out_dir, name)
    return manifest is not None and (
        manifest.get("config"), manifest.get("version"), manifest.get("columns")
    ) == (config.to_dict(), __version__, list(columns))


def find_orphans(out_dir):
    """CSVs lacking a readable manifest or failing its checksum, and .tmp files."""
    return [
        entry for entry in sorted(os.listdir(out_dir))
        if entry.endswith((".csv.tmp", ".manifest.json.tmp"))
        or (entry.endswith(".csv") and _verified_manifest(out_dir, entry[:-4]) is None)
    ]
