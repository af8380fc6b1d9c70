"""Throughput benchmark for entdetect: evaluated states per second.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload rank-2x5 --seed 42 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout and driven only
through its public entry points, ``harness.run_sweep`` and ``cli.main``.
The benchmark makes the workload's configs from ``--seed`` (the master
seed handed to the program) and repeats the whole workload for
``--seconds`` seconds. Each repetition is one pass. Set-up probes and
resume calls are interleaved with the passes, so every metric samples
the whole window: on a shared host the machine's speed drifts over
seconds, and a metric taken in one burst would see only one speed.

Workloads (see SAMPLES for sizes):

* rank-2x5      run_sweep over 2x5 k=2..10 plus 3x5 k=2, one worker, no
                disk I/O. Small matrices: Python overhead in criteria and
                linalg dominates, so a batched kernel shows here.
* asymmetry-36  cli.main asymmetry --d12 36, one worker. 36-wide matrices
                and lopsided realignment SVDs: LAPACK dominates, so
                BLAS-level changes show here and Python-overhead cuts
                should move it little.
* scan-3x4-w2   cli.main scan-rank 3x4 k=1..12, two workers. The only
                workload that starts process pools (one per cell), and
                writes and re-reads CSV + manifest.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* states_per_s_norm  evaluated states per wall second over all passes,
                scaled to the reference speed of the host (see below).
* setup_s       median, over fresh interpreters (one per pass), of the
                time from process start to the first evaluated state:
                imports, argparse, lazy LAPACK init.
* peak_rss_mb   peak RSS of this process or of any child it waited for.
* resume_ms_norm  median wall time of cli.main re-invoked on an output
                directory whose results are current, scaled like
                states_per_s_norm. rank-2x5 has no CLI form of its own;
                it is resumed as the two scan-rank commands that cover
                its cells.

The speed of a shared host drifts by up to 1.6x over seconds to minutes,
for every process on it, so raw wall rates of separate runs spread more
than a program change should be allowed to move them. The benchmark
therefore times a fixed reference loop (ReferenceLoop: small eigvalsh,
svd and kron plus interpreter work, none of it program code) twice per
pass, and scales each timing by the reference loop's mean time over the
run against REFERENCE_LOOP_S, its time on the baseline host: a value
reads as the rate the host would give at its baseline speed. The raw
rates and the reference timings are printed on the lines before the
result.

With ``--trace 1`` it reports the per-layer metrics of benchmarks/layers.py
plus ``trace.overhead_frac`` (1 - traced / untraced states_per_s), from
passes that alternate untraced and traced. scan-3x4-w2 is traced with one
worker, because worker processes are not traced.

Outputs are checked on every pass. At seed 42 each CSV line must match
the sha256 digests in benchmarks/references.json; at every seed the CSV
must satisfy seed-independent invariants. ``attempted`` counts cells
evaluated plus resume calls; ``failed`` counts cells that raised or whose
CSV row missed a check, plus resume calls that recomputed.
``--record-references`` rewrites references.json from one seed-42 pass.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
REFERENCE_SEED = 42
RESUME_BATCH = 10
# Seconds one ReferenceLoop.time() call takes on the baseline host
# (python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, 2 CPUs; median of the
# per-run means over five 30 s rank-2x5 runs). The normalized metrics
# scale to it; it must stay fixed for their values to stay comparable.
REFERENCE_LOOP_S = 0.0194
REFERENCE_REPS = 300
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CRITERIA = ("pt", "reduction", "majorization", "entropy", "realignment")

# Samples per cell. scan-3x4-w2 must stay above harness.BLOCK_SIZE (256),
# or run_cell skips the pool.
SAMPLES = {"rank-2x5": 256, "asymmetry-36": 128, "scan-3x4-w2": 512}

# Must run before numpy is first imported, here and in every child:
# two pool workers on two CPUs must not each start a BLAS thread pool.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("ENTDETECT_WORKERS", None)  # would override --workers


def _import_program():
    if not (SRC / "entdetect" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'entdetect'}")
    sys.path.insert(0, str(SRC))
    import entdetect

    if Path(entdetect.__file__).resolve().parent != SRC / "entdetect":
        sys.exit(f"error: imported entdetect from {entdetect.__file__}, not {SRC}")


class Workload:
    """One workload's configs, derived from the seed alone."""

    def __init__(self, name, seed, workers=None):
        self.name = name
        self.seed = seed
        self.samples = samples = SAMPLES[name]
        s = ["--samples", str(samples), "--seed", str(seed)]
        if name == "rank-2x5":
            self.cells = [(2, 5, k) for k in range(2, 11)] + [(3, 5, 2)]
            self.workers = 1 if workers is None else workers
            # The CLI commands covering the same cells, for the resume path.
            self.cli_argvs = [
                ["scan-rank", "--d1", "2", "--d2", "5", "--k", "2..10"] + s,
                ["scan-rank", "--d1", "3", "--d2", "5", "--k", "2"] + s,
            ]
        elif name == "asymmetry-36":
            self.cells = [(d1, 36 // d1, k) for d1 in (2, 3, 4, 6) for k in (2, 36)]
            self.workers = 1 if workers is None else workers
            self.cli_argvs = [["asymmetry", "--d12", "36"] + s]
        elif name == "scan-3x4-w2":
            self.cells = [(3, 4, k) for k in range(1, 13)]
            self.workers = 2 if workers is None else workers
            self.cli_argvs = [["scan-rank", "--d1", "3", "--d2", "4", "--k", "1..12"] + s]
        else:
            raise ValueError(f"unknown workload {name!r}")
        for argv in self.cli_argvs:
            argv += ["--workers", str(self.workers)]

    @property
    def states(self):
        return len(self.cells) * self.samples

    def run_pass(self, work_dir):
        """Run the workload once; returns the CSV body it produced."""
        from entdetect import harness

        if self.name == "rank-2x5":
            config = harness.SweepConfig(
                cells=tuple(self.cells), samples_per_cell=self.samples,
                master_seed=self.seed, workers=self.workers,
            )
            stats = harness.run_sweep(config)
            return harness.render_csv([harness.stats_row(s) for s in stats])
        return self.run_cli(work_dir)

    def run_cli(self, out_dir):
        """Run the workload's CLI commands into ``out_dir``; returns the
        concatenated CSV body (header once)."""
        from entdetect import cli

        body = ""
        for argv in self.cli_argvs:
            with contextlib.redirect_stdout(io.StringIO()) as said:
                code = cli.main(argv + ["--out", str(out_dir)])
            if code != 0:
                raise RuntimeError(f"cli.main{argv} returned {code}: {said.getvalue()}")
            path = said.getvalue().split(" wrote ", 1)[1].strip()
            with open(path, newline="") as fh:
                text = fh.read()
            body += text if not body else text.split("\r\n", 1)[1]
        return body

    def resume(self, out_dir):
        """Re-invoke the CLI on current results; returns (seconds, ok)."""
        from entdetect import cli

        t0 = time.perf_counter()
        said = io.StringIO()
        with contextlib.redirect_stdout(said):
            codes = [cli.main(argv + ["--out", str(out_dir)]) for argv in self.cli_argvs]
        dt = time.perf_counter() - t0
        ok = codes == [0] * len(codes) and said.getvalue().count(
            "results are current"
        ) == len(self.cli_argvs)
        return dt, ok

    def setup_probe_code(self):
        d1, d2, k = self.cells[0]
        return (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from entdetect import cli\n"
            "from entdetect.harness import run_cell\n"
            f"cli.build_parser().parse_args({self.cli_argvs[0]!r})\n"
            f"run_cell({d1}, {d2}, {k}, 1, {self.seed})\n"
            "print('ready', flush=True)\n"
        )


def line_digests(body):
    return [hashlib.sha256(line.encode()).hexdigest() for line in body.split("\r\n")]


def failed_rows(workload, body, references):
    """Number of cells whose CSV row fails a check (all of them if the
    CSV as a whole is malformed)."""
    n_cells = len(workload.cells)
    lines = body.split("\r\n")
    if len(lines) != n_cells + 2 or lines[-1] != "":
        return n_cells
    rows = list(csv.DictReader(io.StringIO(body, newline="")))
    if [(int(r["d1"]), int(r["d2"]), int(r["k"])) for r in rows] != workload.cells:
        return n_cells
    bad = set()
    if references is not None:
        expected = references[workload.name]
        got = line_digests(body)
        if got[0] != expected[0]:
            return n_cells
        bad |= {i for i in range(n_cells) if got[i + 1] != expected[i + 1]}
    for i, row in enumerate(rows):
        if not row_invariants_hold(row, workload.samples):
            bad.add(i)
    return len(bad)


def row_invariants_hold(row, samples):
    """Seed-independent properties of one CSV row."""
    if int(row["n"]) != samples or not 0 <= int(row["n_npt"]) <= samples:
        return False
    for c in CRITERIA:
        f, err, mean, low = (row[f"{c}_{s}"] for s in ("F", "F_stderr", "M", "m"))
        if f == "":
            # No NPT population: every statistic is undefined.
            if (err, mean, low) != ("", "", ""):
                return False
        elif float(f) == 0.0:
            # No detections: M and m are undefined, never 0.
            if err == "" or (mean, low) != ("", ""):
                return False
        elif "" in (err, mean, low) or float(low) <= 0.0 or float(mean) < float(low):
            return False
    if int(row["d1"]) == 2 and row["reduction_F"] != row["pt_F"]:
        return False
    ent, maj = row["entropy_F"], row["majorization_F"]
    if ent != "" and (maj == "" or float(ent) > float(maj)):
        return False
    return True


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def setup_probe(workload):
    """Seconds from starting a fresh interpreter to its first evaluated state."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", workload.setup_probe_code()],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
    return dt


class ReferenceLoop:
    """Fixed numpy and interpreter work, independent of the program, whose
    time tracks the speed the host gives this process."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 10))
        self.herm = a + a.T
        self.wide = rng.standard_normal((4, 25))
        self.left = rng.standard_normal((2, 2))
        self.right = rng.standard_normal((5, 5))

    def time(self):
        np = self.np
        t0 = time.perf_counter()
        for i in range(REFERENCE_REPS):
            np.linalg.eigvalsh(self.herm)
            np.linalg.svd(self.wide, compute_uv=False)
            np.kron(self.left, self.right)
            sum({j: j * i for j in range(20)}.values())
        return time.perf_counter() - t0


def environment():
    import numpy as np

    blas = {"name": "unknown", "version": "unknown"}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS[:2]},
        "git_commit": commit,
    }


class Run:
    """Timed passes of one workload, with output checks and counters."""

    def __init__(self, workload, work_root, references):
        self.workload = workload
        self.work_root = work_root
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def timed_pass(self):
        """One checked pass; returns its wall seconds."""
        out_dir = Path(self.work_root) / f"pass{self.passes}"
        self.passes += 1
        t0 = time.perf_counter()
        try:
            body = self.workload.run_pass(out_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            body = ""
        dt = time.perf_counter() - t0
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += len(self.workload.cells)
        self.failed += failed_rows(self.workload, body, self.references)
        return dt

    def check_cli(self, out_dir):
        """Produce current CLI results in ``out_dir`` and check them."""
        self.attempted += len(self.workload.cells)
        try:
            body = self.workload.run_cli(out_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            body = ""
        self.failed += failed_rows(self.workload, body, self.references)

    def resume_times(self, out_dir, calls):
        times = []
        for _ in range(calls):
            dt, ok = self.workload.resume(out_dir)
            self.attempted += 1
            self.failed += not ok
            times.append(dt)
        return times


def measure(args, work_root, references):
    """Untraced run. Each pass is followed by one set-up probe and a batch
    of resume calls, so all three metrics sample the whole window, and by
    a reference-loop timing after the pass and after the resume calls."""
    workload = Workload(args.workload, args.seed)
    run = Run(workload, work_root, references)
    reference = ReferenceLoop()
    resume_dir = Path(work_root) / "resume"
    run.check_cli(resume_dir)
    reference.time()  # warm-up
    pass_times, setups, resumes, refs = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not pass_times or time.perf_counter() < deadline:
        pass_times.append(run.timed_pass())
        refs.append(reference.time())
        setups.append(setup_probe(workload))
        resumes += run.resume_times(resume_dir, RESUME_BATCH)
        refs.append(reference.time())
    states_per_s = workload.states * len(pass_times) / sum(pass_times)
    resume_ms = statistics.median(resumes) * 1e3
    # >1 when the host ran slower than at baseline.
    slowness = statistics.mean(refs) / REFERENCE_LOOP_S
    print(f"states_per_s per pass ({workload.states} states each): "
          + " ".join(f"{workload.states / t:.0f}" for t in pass_times))
    print(f"raw states_per_s {states_per_s:.1f}, raw resume_ms {resume_ms:.4f}; "
          f"reference loop mean {statistics.mean(refs) * 1e3:.3f} ms, median "
          f"{statistics.median(refs) * 1e3:.3f} ms over {len(refs)} calls "
          f"(baseline {REFERENCE_LOOP_S * 1e3:g} ms)")
    metrics = {
        "states_per_s_norm": (states_per_s * slowness, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "resume_ms_norm": (resume_ms / slowness, "ms"),
    }
    return run, metrics


def measure_traced(args, work_root, references):
    """Traced run: passes alternate untraced and traced, then the resume
    path runs traced."""
    from layers import Tracer

    # Worker processes are not traced, so every workload runs one worker.
    workload = Workload(args.workload, args.seed, workers=1)
    if args.workload == "scan-3x4-w2":
        print("note: scan-3x4-w2 per-layer metrics come from a 1-worker traced run")
    run = Run(workload, work_root, references)
    tracer = Tracer()
    pass_times = {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    traced = False
    while not pass_times[True] or time.perf_counter() < deadline:
        if traced:
            tracer.install()
        try:
            pass_times[traced].append(run.timed_pass())
        finally:
            tracer.uninstall()
        traced = not traced
    tracer.install()
    try:
        resume_dir = Path(work_root) / "resume"
        run.check_cli(resume_dir)
        run.resume_times(resume_dir, RESUME_BATCH)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # Equal work per pass, so the rate ratio is the inverse mean-time ratio.
    slowdown = statistics.mean(pass_times[True]) / statistics.mean(pass_times[False])
    metrics["trace.overhead_frac"] = (1.0 - 1.0 / slowdown, "ratio")
    return run, metrics


def record_references(work_root):
    refs = {}
    for name in SAMPLES:
        body = Workload(name, REFERENCE_SEED).run_pass(Path(work_root) / name)
        refs[name] = line_digests(body)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {REFERENCES}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(SAMPLES))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json from seed-42 outputs and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    return args


def main(argv=None):
    args = parse_args(argv)
    _import_program()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work_root:
        if args.record_references:
            record_references(work_root)
            return 0
        references = None
        if args.seed == REFERENCE_SEED:
            references = json.loads(REFERENCES.read_text())
        print("env " + json.dumps(environment(), sort_keys=True))
        measure_fn = measure_traced if args.trace else measure
        run, metrics = measure_fn(args, work_root, references)
    print(f"failed_frac {run.failed / run.attempted:g} "
          f"({run.failed} of {run.attempted} cells and resume calls)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
