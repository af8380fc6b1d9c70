"""Per-layer tracing for the benchmark, done by wrapping public functions.

Wrappers are installed on module attributes of the benchmark process
only, for the duration of a traced pass, and removed afterwards, so
untraced passes run the program exactly as shipped. Worker processes
are not traced; the benchmark traces its pool workload with one worker.

Spans are aggregated in memory per name: call count, inclusive time and
self time (inclusive time minus the time covered by direct child spans).
"""

import time
from collections import Counter, defaultdict

import numpy as np

from entdetect import analytics, cli, criteria, harness, sampling

EVALUATE = "criteria.evaluate_state"

# (module, attribute, span name, only counted inside evaluate_state).
# Each function is wrapped where its caller looks it up: the linalg
# functions as bound in ``criteria``, the harness/analytics functions as
# bound in ``harness`` and ``cli``, and numpy through its own modules.
_PATCHES = (
    (sampling, "sample_tripartite_pure", "sampling.sample_tripartite_pure", False),
    (harness, "sample_reduced_state", "sampling.sample_reduced_state", False),
    (harness, "evaluate_state", EVALUATE, False),
    (criteria, "partial_trace", "linalg.partial_trace", False),
    (criteria, "spectrum", "linalg.spectrum", False),
    (criteria, "partial_transpose", "linalg.partial_transpose", False),
    (criteria, "realign", "linalg.realign", False),
    (criteria, "trace_norm", "linalg.trace_norm", False),
    (criteria, "von_neumann_entropy", "linalg.von_neumann_entropy", False),
    (np.linalg, "eigvalsh", "numpy.eigvalsh", True),
    (np.linalg, "svd", "numpy.svd", True),
    (np, "kron", "numpy.kron", True),
    (harness, "run_cell", "harness.run_cell", False),
    (cli, "run_cell", "harness.run_cell", False),
    (harness, "aggregate", "analytics.aggregate", False),
    (cli, "aggregate", "analytics.aggregate", False),
    (harness, "render_csv", "harness.render_csv", False),
    (harness, "write_results", "harness.write_results", False),
    (cli, "write_results", "harness.write_results", False),
    (cli, "results_current", "harness.results_current", False),
    (cli, "main", "cli.main", False),
)

# Per-layer metric -> (span name, statistic, scale, unit). Statistic
# "incl"/"self" is per evaluated state; "call" is inclusive time per call,
# "call_self" self time per call, "count" calls per evaluated state.
METRICS = {
    "sampling.draw_us": ("sampling.sample_tripartite_pure", "incl", 1e6, "us"),
    "sampling.rho_build_us": ("sampling.sample_reduced_state", "self", 1e6, "us"),
    "linalg.partial_trace_us": ("linalg.partial_trace", "incl", 1e6, "us"),
    "linalg.spectrum_us": ("linalg.spectrum", "incl", 1e6, "us"),
    "linalg.partial_transpose_us": ("linalg.partial_transpose", "incl", 1e6, "us"),
    "linalg.realign_us": ("linalg.realign", "incl", 1e6, "us"),
    "linalg.trace_norm_us": ("linalg.trace_norm", "incl", 1e6, "us"),
    "linalg.entropy_us": ("linalg.von_neumann_entropy", "incl", 1e6, "us"),
    "criteria.evaluate_self_us": (EVALUATE, "self", 1e6, "us"),
    "numpy.eigvalsh_us": ("numpy.eigvalsh", "incl", 1e6, "us"),
    "numpy.svd_us": ("numpy.svd", "incl", 1e6, "us"),
    "numpy.kron_us": ("numpy.kron", "incl", 1e6, "us"),
    "numpy.eigvalsh_calls": ("numpy.eigvalsh", "count", 1, "count"),
    "numpy.svd_calls": ("numpy.svd", "count", 1, "count"),
    "harness.run_cell_self_us": ("harness.run_cell", "self", 1e6, "us"),
    "harness.render_csv_ms": ("harness.render_csv", "call", 1e3, "ms"),
    "harness.write_results_ms": ("harness.write_results", "call", 1e3, "ms"),
    "harness.results_current_ms": ("harness.results_current", "call", 1e3, "ms"),
    "analytics.aggregate_us": ("analytics.aggregate", "incl", 1e6, "us"),
    "cli.main_self_ms": ("cli.main", "call_self", 1e3, "ms"),
}


class Tracer:
    """Aggregated spans; install() wraps the layer boundaries in place."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self._children = []  # child time of each open span, innermost last
        self._in_evaluate = 0
        self._saved = []

    def _wrap(self, name, fn, gated):
        def traced(*args, **kwargs):
            if gated and not self._in_evaluate:
                return fn(*args, **kwargs)
            is_eval = name == EVALUATE
            self._in_evaluate += is_eval
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._in_evaluate -= is_eval
                child = self._children.pop()
                if self._children:
                    self._children[-1] += dur
                self.calls[name] += 1
                self.incl[name] += dur
                self.self_time[name] += dur - child

        return traced

    def install(self):
        for module, attr, name, gated in _PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, gated))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def metrics(self):
        """Every per-layer metric as {name: (value, unit)}."""
        states = self.calls[EVALUATE]
        if states == 0:
            raise RuntimeError("traced run evaluated no states")
        out = {}
        for metric, (span, stat, scale, unit) in METRICS.items():
            n = self.calls[span]
            if stat == "count":
                value = n / states
            elif stat in ("incl", "self"):
                total = self.incl[span] if stat == "incl" else self.self_time[span]
                value = total / states * scale
            else:
                if n == 0:
                    raise RuntimeError(f"traced run never called {span}")
                total = self.incl[span] if stat == "call" else self.self_time[span]
                value = total / n * scale
            out[metric] = (value, unit)
        return out
