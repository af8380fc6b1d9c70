import json
import os

import pytest

from entdetect import SweepConfig, __version__, aggregate, evaluate_trial, run_cell
from entdetect.harness import (
    CSV_COLUMNS,
    checksum,
    csv_columns,
    find_orphans,
    render_csv,
    results_current,
    stats_row,
    write_results,
)


class TestRunCell:
    def test_serial_parallel_identical(self):
        serial = run_cell(2, 4, 3, 600, master_seed=21, workers=1)
        parallel = run_cell(2, 4, 3, 600, master_seed=21, workers=4)
        assert len(serial) == len(parallel) == 600
        for a, b in zip(serial, parallel):
            assert a.ln == b.ln
            assert a.spec == b.spec
            for c in a.verdicts:
                assert a.verdicts[c].detected == b.verdicts[c].detected
                assert a.verdicts[c].witness == b.verdicts[c].witness

    def test_trials_are_globally_indexed(self):
        recs = run_cell(2, 3, 2, 10, master_seed=5)
        assert [r.spec.trial_index for r in recs] == list(range(10))

    def test_evaluate_trial_matches_cell_records(self):
        recs = run_cell(2, 3, 4, 5, master_seed=77)
        for r in recs:
            full = evaluate_trial(2, 3, 4, 77, r.spec.trial_index)
            assert full.ln == r.ln
            for c in r.verdicts:
                assert full.verdicts[c].detected == r.verdicts[c].detected
                assert full.verdicts[c].witness == r.verdicts[c].witness


class TestSweepConfig:
    def test_validates_cells(self):
        with pytest.raises(ValueError):
            SweepConfig(cells=((2, 3, 99),), samples_per_cell=10, master_seed=0)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            SweepConfig(cells=((2, 3, 2),), samples_per_cell=0, master_seed=0)


class TestCsvRendering:
    def _stats(self):
        return aggregate(run_cell(2, 3, 6, 200, master_seed=9))

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


class TestPersistence:
    def _write(self, tmp_path, seed=3):
        config = SweepConfig(cells=((2, 3, 2),), samples_per_cell=100, master_seed=seed)
        stats = aggregate(run_cell(2, 3, 2, 100, master_seed=seed))
        path = write_results(
            str(tmp_path), "cell", [stats_row(stats)], config,
            cells_meta=[{"d1": 2, "d2": 3, "k": 2, "n": 100, "n_npt": stats.n_npt}],
        )
        return config, path

    def test_manifest_schema(self, tmp_path):
        config, path = self._write(tmp_path)
        with open(os.path.join(tmp_path, "cell.manifest.json")) as fh:
            manifest = json.load(fh)
        assert set(manifest) == {
            "config", "version", "started_at", "finished_at", "cells", "checksum",
        }
        assert manifest["config"] == config.to_dict()
        assert manifest["cells"][0]["n"] == 100
        with open(path, newline="") as fh:
            assert manifest["checksum"] == checksum(fh.read())

    def test_results_current_and_resume(self, tmp_path):
        config, path = self._write(tmp_path)
        assert results_current(str(tmp_path), "cell", config)
        other = SweepConfig(cells=((2, 3, 2),), samples_per_cell=100, master_seed=99)
        assert not results_current(str(tmp_path), "cell", other)

    def test_other_columns_not_current(self, tmp_path):
        config, path = self._write(tmp_path)
        assert not results_current(str(tmp_path), "cell", config, csv_columns(("pt",)))
        assert results_current(str(tmp_path), "cell", config, csv_columns())

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
