import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from entdetect import (
    Records,
    SweepConfig,
    __version__,
    aggregate,
    criteria,
    evaluate_state,
    harness,
    run_cell,
    run_sweep,
    sample_reduced_state,
)
from entdetect.harness import (
    CSV_COLUMNS,
    checksum,
    find_orphans,
    render_csv,
    results_current,
    stats_row,
    write_results,
)
from entdetect.verify import run_checks
from conftest import row_of


class TestRunCell:
    def test_serial_parallel_identical(self):
        # the pool's blocks come back as arrays: both columns, exactly
        serial = run_cell(2, 4, 3, 600, master_seed=21, workers=1)
        parallel = run_cell(2, 4, 3, 600, master_seed=21, workers=4)
        assert len(serial) == len(parallel) == 600
        assert np.array_equal(serial.tn, parallel.tn)
        assert np.array_equal(serial.witness, parallel.witness)
        assert serial == parallel

    def test_trials_are_globally_indexed(self):
        # 300 trials in two blocks through a pool: the second block starts
        # at trial 256, not 0
        recs = run_cell(2, 3, 4, 300, master_seed=77, workers=2)
        assert len(recs) == 300
        for t in (0, 1, 255, 256, 299):
            rho = sample_reduced_state(2, 3, 4, 77, t)
            assert row_of(recs, t) == evaluate_state(rho), t

    def test_evaluate_trial_matches_cell_records(self):
        # record t of a cell is the evaluation of trial t on its own
        recs = run_cell(2, 3, 4, 5, master_seed=77)
        assert len(recs) == 5
        for t in range(5):
            rho = sample_reduced_state(2, 3, 4, 77, t)
            assert row_of(recs, t) == evaluate_state(rho), t

    # run_cell(2, 5, 6, 300, 42) draws two blocks, of 256 and 44 trials,
    # in chunks of 40 (sampling._chunk_size(2, 5)): 6 x 40 + 16, then 40 + 4.
    CHUNKS_2X5_300 = [40] * 6 + [16, 40, 4]

    def test_per_state_calls_the_benchmark_tracer_counts(self, monkeypatch):
        # benchmarks/layers.py counts evaluated states as calls to
        # harness.evaluate_state, pins 6 eigvalsh and 1 svd per such call,
        # and wraps harness.sample_reduced_state. run_cell makes one such
        # call per sampler chunk, and its Records are those calls' Records
        # in order.
        assert callable(harness.sample_reduced_state)
        lapack = Counter()
        for name in ("eigvalsh", "svd"):
            fn = getattr(np.linalg, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                lapack[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        per_call, returned = [], []
        evaluate = harness.evaluate_state

        def traced(rho):
            before = lapack.copy()
            recs = evaluate(rho)
            per_call.append((len(rho), lapack["eigvalsh"] - before["eigvalsh"],
                             lapack["svd"] - before["svd"]))
            returned.append(recs)
            return recs

        monkeypatch.setattr(harness, "evaluate_state", traced)
        recs = run_cell(2, 5, 6, 300, 42)
        assert per_call == [(b, 6, 1) for b in self.CHUNKS_2X5_300]
        assert len(recs) == 300 and recs == Records.concat(returned)
        assert recs == Records.concat([evaluate_state(sample_reduced_state(2, 5, 6, 42, t))
                                       for t in range(300)])

    def test_per_state_calls_every_helper_the_benchmark_tracer_wraps(self, monkeypatch):
        # benchmarks/layers.py times each of these helpers as it is looked
        # up on criteria; a kernel that inlined one would read 0 for its
        # per-layer metric without any error.
        helpers = ("partial_trace", "spectrum", "partial_transpose", "realign",
                   "trace_norm", "von_neumann_entropy")
        calls = Counter()
        for name in helpers:
            fn = getattr(criteria, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(criteria, name, counted)
        per_call = []
        evaluate = harness.evaluate_state

        def traced(rho):
            calls.clear()
            recs = evaluate(rho)
            per_call.append((len(rho), len(recs), min(calls[name] for name in helpers)))
            return recs

        monkeypatch.setattr(harness, "evaluate_state", traced)
        assert len(run_cell(2, 5, 6, 300, 42)) == 300
        assert [(b, n) for b, n, _ in per_call] == [(b, b) for b in self.CHUNKS_2X5_300]
        assert min(c for _, _, c in per_call) >= 1


_RUN_BLOCK = harness._run_block


def _block_failing_at_k3(args):
    """A harness._run_block stand-in, sent to the pool workers by import
    path, that raises for every block of rank 3."""
    if args[2] == 3:
        raise RuntimeError("block failed")
    return _RUN_BLOCK(args)


@pytest.fixture
def pools(monkeypatch):
    """Make harness start, in place of its ProcessPoolExecutor, one that
    records each pool built, the futures it hands out and the
    cancel_futures flag of each shutdown; returns the list of pools built."""
    built = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.futures = []
            self.shutdowns = []
            built.append(self)

        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            self.futures.append(future)
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.shutdowns.append(cancel_futures)
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(harness, "_start_pool", RecordingPool)
    return built


class TestRunSweep:
    # 300 samples: two blocks per cell, the last one short
    CELLS = ((2, 3, 2), (2, 4, 5), (3, 3, 4))

    def _config(self, workers, cells=CELLS, samples=300):
        return SweepConfig(
            cells=cells, samples_per_cell=samples, master_seed=8, workers=workers
        )

    def test_worker_counts_agree_with_run_cell(self):
        serial = run_sweep(self._config(1))
        parallel = run_sweep(self._config(3))
        assert serial == parallel
        assert serial == [
            aggregate(run_cell(*cell, 300, master_seed=8), cell) for cell in self.CELLS
        ]

    def test_one_pool_per_sweep(self, pools):
        run_sweep(self._config(1))
        assert pools == []
        run_sweep(self._config(2))
        [pool] = pools
        assert pool.shutdowns == [False]
        assert len(pool.futures) == 2 * len(self.CELLS)

    # Eight cells of two ~0.1 s blocks each: when the failure comes, most
    # blocks have not reached a worker.
    MANY = tuple((3, 4, k) for k in (3, 2, 4, 5, 6, 7, 8, 9))

    def test_failed_block_cancels_the_rest(self, pools, monkeypatch):
        monkeypatch.setattr(harness, "_run_block", _block_failing_at_k3)
        with pytest.raises(RuntimeError, match="block failed"):
            run_sweep(self._config(2, self.MANY, 512))
        [pool] = pools
        assert pool.shutdowns == [True]
        assert any(f.cancelled() for f in pool.futures)

    def test_failed_aggregate_cancels_the_rest(self, pools, monkeypatch):
        seen = []

        def aggregate_failing_at_second_cell(records, cell, eps):
            seen.append(cell[2])
            if len(seen) == 2:
                raise RuntimeError("aggregate failed")
            return aggregate(records, cell, eps=eps)

        monkeypatch.setattr(harness, "aggregate", aggregate_failing_at_second_cell)
        with pytest.raises(RuntimeError, match="aggregate failed"):
            run_sweep(self._config(2, self.MANY, 512))
        assert seen == [3, 2]
        [pool] = pools
        assert pool.shutdowns == [True]
        assert any(f.cancelled() for f in pool.futures)


class TestSweepConfig:
    def test_validates_cells(self):
        with pytest.raises(ValueError):
            SweepConfig(cells=((2, 3, 99),), samples_per_cell=10, master_seed=0)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            SweepConfig(cells=((2, 3, 2),), samples_per_cell=0, master_seed=0)
        with pytest.raises(ValueError):
            run_cell(2, 3, 2, 0, 0)

    def test_rejects_samples_past_2_32(self):
        # trial indices lie below 2**32; a larger count fails before any
        # block is listed
        SweepConfig(cells=((2, 3, 2),), samples_per_cell=2 ** 32, master_seed=0)
        with pytest.raises(ValueError, match="sample count"):
            SweepConfig(cells=((2, 3, 2),), samples_per_cell=2 ** 32 + 1, master_seed=0)
        with pytest.raises(ValueError, match="sample count"):
            run_cell(2, 3, 2, 10 ** 20, 0)

    @pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            SweepConfig(cells=((2, 3, 2),), samples_per_cell=1, master_seed=0, eps=eps)
        with pytest.raises(ValueError, match="eps"):
            run_checks(samples=1, master_seed=2024, eps=eps)


class TestCsvRendering:
    def _stats(self):
        return aggregate(run_cell(2, 3, 6, 200, master_seed=9), (2, 3, 6))

    def test_schema_and_nulls(self):
        stats = self._stats()
        body = render_csv([stats_row(stats)])
        lines = body.strip().split("\r\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        fields = lines[1].split(",")
        assert fields[:5] == ["2", "3", "6", "200", str(stats.n_npt)]
        # entropy never fires at full rank in 2x3; M and m are empty fields
        idx = CSV_COLUMNS.index("entropy_M")
        if stats.per_criterion["entropy"].mean_ln is None:
            assert fields[idx] == "" and fields[idx + 1] == ""

    def test_six_significant_digits(self):
        stats = self._stats()
        body = render_csv([stats_row(stats)])
        value = body.strip().split("\r\n")[1].split(",")[CSV_COLUMNS.index("pt_M")]
        assert value == f"{stats.per_criterion['pt'].mean_ln:.6g}"

    def test_rendering_deterministic(self):
        stats = self._stats()
        assert render_csv([stats_row(stats)]) == render_csv([stats_row(stats)])

    def test_row_derives_d12_from_the_cell(self):
        stats = aggregate(run_cell(3, 4, 2, 20, master_seed=9), (3, 4, 2))
        row = stats_row(stats)
        assert row["d12"] == stats.d1 * stats.d2 == 12
        assert set(CSV_COLUMNS) <= set(row) and "d12" not in CSV_COLUMNS


class TestPersistence:
    def _write(self, tmp_path, seed=3):
        config = SweepConfig(cells=((2, 3, 2),), samples_per_cell=100, master_seed=seed)
        stats = aggregate(run_cell(2, 3, 2, 100, master_seed=seed), (2, 3, 2))
        path = write_results(str(tmp_path), "cell", [stats], config, wall_s=1.0)
        return config, path

    def test_manifest_schema(self, tmp_path):
        config, path = self._write(tmp_path)
        with open(os.path.join(tmp_path, "cell.manifest.json")) as fh:
            manifest = json.load(fh)
        assert set(manifest) == {
            "config", "version", "started_at", "finished_at", "columns", "cells", "run",
            "checksum",
        }
        assert manifest["config"] == config.to_dict()
        assert manifest["cells"][0]["n"] == 100
        with open(path, "rb") as fh:
            body = fh.read()
        assert manifest["checksum"] == checksum(body)
        header, *rows = [line.split(",") for line in body.decode().split("\r\n")[:-1]]
        assert manifest["columns"] == header == CSV_COLUMNS
        assert [[str(c[key]) for key in ("d1", "d2", "k", "n", "n_npt")]
                for c in manifest["cells"]] == [row[:5] for row in rows]

    def test_corrupt_csv_means_recompute_and_orphan(self, tmp_path):
        config, path = self._write(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfebad")  # not UTF-8
        assert not results_current(str(tmp_path), "cell", config)
        assert find_orphans(str(tmp_path)) == ["cell.csv"]

    def test_manifest_without_columns_not_current(self, tmp_path):
        # the manifest format before it recorded the columns
        config, path = self._write(tmp_path)
        assert results_current(str(tmp_path), "cell", config)
        manifest_path = tmp_path / "cell.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["columns"]
        manifest_path.write_text(json.dumps(manifest))
        assert not results_current(str(tmp_path), "cell", config)

    def test_results_current_and_resume(self, tmp_path):
        config, path = self._write(tmp_path)
        assert results_current(str(tmp_path), "cell", config)
        other = SweepConfig(cells=((2, 3, 2),), samples_per_cell=100, master_seed=99)
        assert not results_current(str(tmp_path), "cell", other)

    def test_other_columns_not_current(self, tmp_path):
        config, path = self._write(tmp_path)
        assert not results_current(str(tmp_path), "cell", config, ["d12", *CSV_COLUMNS])
        assert results_current(str(tmp_path), "cell", config, CSV_COLUMNS)

    def test_other_version_not_current(self, tmp_path):
        config, path = self._write(tmp_path)
        manifest_path = tmp_path / "cell.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == __version__
        manifest["version"] = "0.0.0"
        manifest_path.write_text(json.dumps(manifest))
        assert not results_current(str(tmp_path), "cell", config)

    @pytest.mark.parametrize("text", ["{", "[]", ""])
    def test_corrupt_manifest_means_recompute_and_orphan(self, tmp_path, text):
        config, path = self._write(tmp_path)
        (tmp_path / "cell.manifest.json").write_text(text)
        assert not results_current(str(tmp_path), "cell", config)
        assert find_orphans(str(tmp_path)) == ["cell.csv"]

    def test_tampered_csv_detected(self, tmp_path):
        config, path = self._write(tmp_path)
        with open(path, "a", newline="") as fh:
            fh.write("tampered\r\n")
        assert not results_current(str(tmp_path), "cell", config)
        assert find_orphans(str(tmp_path)) == ["cell.csv"]

    def test_orphan_without_manifest(self, tmp_path):
        with open(tmp_path / "lonely.csv", "w") as fh:
            fh.write("d1,d2\r\n")
        assert find_orphans(str(tmp_path)) == ["lonely.csv"]

    @pytest.mark.parametrize("name", ["cell.csv.tmp", "cell.manifest.json.tmp"])
    def test_leftover_tmp_is_orphan(self, tmp_path, name):
        # what an interrupted _atomic_write leaves behind
        (tmp_path / name).write_text("partial")
        assert find_orphans(str(tmp_path)) == [name]
