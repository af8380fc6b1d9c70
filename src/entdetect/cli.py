"""Command-line entry points: scan-rank, scan-dim, asymmetry, bounds, verify.

Every flag comes from the command line. argparse rejects a missing,
unknown or non-integer flag with its usage error (status 2); the value
checks exit with one line (status 1). The worker count comes from
--workers alone. Sweeps run through harness.run_sweep, each command
writes one fixed column layout, and harness.write_results writes and
harness.results_current checks their result files. verify takes
--samples, --seed and --eps only. A reader that closes stdout early ends
a command with status 1 and no traceback. The parser is built once per
process, and each call of main parses its argv against it into a fresh
namespace, so a re-run of a sweep whose results are current costs little
more than the cache check.
"""

import argparse
import functools
import math
import os
import sys
import time

from . import analytics
from .criteria import EPS
from .harness import (
    CSV_COLUMNS,
    SweepConfig,
    results_current,
    run_sweep,
    usable_cpu_count,
    write_results,
)
# Unused here, but benchmarks/layers.py traces these names on this module.
from .harness import aggregate, run_cell  # noqa: F401


def _checked(check, *args, **kwargs):
    """Run one of the program's input checks; its ValueError exits with one line."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _parse_range(text):
    """'2..10' -> [2..10]; '7' -> [7]."""
    lo, sep, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise SystemExit(f"expected an integer or a range like 2..10, got {text!r}")
    if not values:
        raise SystemExit(f"empty range {text!r}")
    return values


def _workers(args):
    value = args.workers
    if value == "auto":
        return usable_cpu_count()
    if not value.strip().isdecimal() or int(value) < 1:
        raise SystemExit(
            f"worker count must be a positive integer or 'auto', got {value!r}"
        )
    return int(value)


def _run_and_write(name, cells, args, lead=()):
    """Sweep ``cells`` and write <name>.csv; ``lead`` names columns of
    harness.stats_row that go before the cell. Returns the exit status."""
    config = _checked(
        SweepConfig,
        cells=tuple(cells),
        samples_per_cell=args.samples,
        master_seed=args.seed,
        eps=args.eps,
        workers=_workers(args),
    )
    columns = [*lead, *CSV_COLUMNS]
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"--out {args.out}: {exc.strerror}")
    if results_current(args.out, name, config, columns):
        print(f"{name}: results are current, skipping")
        return 0

    t0 = time.perf_counter()
    stats = run_sweep(config)
    wall_s = time.perf_counter() - t0
    try:
        path = write_results(args.out, name, stats, config, columns, wall_s=wall_s)
    except OSError as exc:
        raise SystemExit(f"--out {args.out}: {exc.strerror}")
    print(f"{name}: wrote {path}")
    return 0


def cmd_scan_rank(args):
    cells = [(args.d1, args.d2, k) for k in _parse_range(args.k)]
    return _run_and_write(f"scan_rank_{args.d1}x{args.d2}", cells, args)


def cmd_scan_dim(args):
    ks = _parse_range(args.k)
    if len(ks) != 1:
        raise SystemExit("scan-dim expects a single rank --k")
    cells = [(args.d1, d2, ks[0]) for d2 in _parse_range(args.d2)]
    return _run_and_write(f"scan_dim_d1{args.d1}_k{ks[0]}", cells, args)


def cmd_asymmetry(args):
    d12 = args.d12
    factorizations = [
        (d1, d12 // d1) for d1 in range(2, math.isqrt(max(d12, 0)) + 1) if d12 % d1 == 0
    ]
    if len(factorizations) < 2:
        raise SystemExit(
            f"d12={d12} does not admit two factorizations with both factors >= 2"
        )
    cells = [(d1, d2, k) for d1, d2 in factorizations for k in (2, d12)]
    return _run_and_write(f"asymmetry_{d12}", cells, args, lead=("d12",))


def cmd_bounds(args):
    d1, d2 = args.d1, args.d2
    threshold = _checked(analytics.entropy_rank_threshold, d1, d2)
    print(f"bounds for {d1}x{d2}")
    print(f"  entropy_rank_threshold   {threshold}")
    bound = analytics.realignment_rank_bound(d1, d2)
    if bound == float("inf"):
        print("  realignment_rank_bound   vacuous (equal dimensions)")
    else:
        print(f"  realignment_rank_bound   {bound:.6g}")
    print("  k  avg_S1     avg_S2     avg_S12    avg_purity")
    for k in range(1, d1 * d2 + 1):
        s1, s2, s12 = analytics.page_entropies(d1, d2, k)
        p = analytics.average_purity(d1, d2, k)
        print(f"  {k:<2} {s1:<10.6g} {s2:<10.6g} {s12:<10.6g} {p:.6g}")
    return 0


def cmd_verify(args):
    from .verify import run_checks  # only this command needs it

    results = _checked(run_checks, samples=args.samples, master_seed=args.seed, eps=args.eps)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<34} margin={r.margin:+.3g}  {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} invariant checks passed")
    return 1 if failed else 0


def _add_run_flags(sub, samples_default):
    """The flags verify shares with the sweeps."""
    sub.add_argument("--samples", type=int, default=samples_default)
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--eps", type=float, default=EPS)


def _add_sweep_flags(sub):
    """The flags of scan-rank, scan-dim and asymmetry."""
    _add_run_flags(sub, samples_default=10000)
    sub.add_argument("--out", default="runs")
    sub.add_argument("--workers", default="1", help="worker count or 'auto'")


@functools.cache
def build_parser():
    """The command-line parser, built once per process. A parse leaves
    no state on it: argparse gives every parse its own namespace."""
    parser = argparse.ArgumentParser(
        prog="entdetect",
        description="Entanglement-detection hierarchy on Haar-random states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-rank", help="sweep rank k at fixed d1 x d2")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--k", required=True, help="rank or range, e.g. 2..10")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_scan_rank)

    p = sub.add_parser("scan-dim", help="sweep d2 at fixed d1 and rank")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", required=True, help="d2 value or range, e.g. 3..10")
    p.add_argument("--k", required=True)
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_scan_dim)

    p = sub.add_parser("asymmetry", help="factorizations of a total dimension")
    p.add_argument("--d12", type=int, required=True)
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_asymmetry)

    p = sub.add_parser("bounds", help="closed-form predictors for one cell")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the invariant suites")
    _add_run_flags(p, samples_default=1000)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (as `| head` does): stdout goes to
        # devnull, so the interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
