"""Command-line entry points: scan-rank, scan-dim, asymmetry, bounds, verify.

Flags can be pre-loaded from a JSON config file (--config); explicit
flags always win. The worker count comes from --workers (or its --config
entry) alone. Sweeps run through harness.run_sweep, and
harness.write_results writes and harness.results_current checks their
result files. verify takes --samples, --seed and --eps only.
"""

import argparse
import json
import math
import os
import sys
import time

from . import analytics
from .criteria import CRITERIA, EPS
from .harness import (
    SweepConfig,
    csv_columns,
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
    lo, sep, hi = str(text).partition("..")
    try:
        values = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise SystemExit(f"expected an integer or a range like 2..10, got {text!r}")
    if not values:
        raise SystemExit(f"empty range {text!r}")
    return values


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise SystemExit(
            "missing required option(s): " + ", ".join(f"--{n}" for n in missing)
        )


def _workers(args):
    value = args.workers
    if value is None:
        return 1
    if value == "auto":
        return usable_cpu_count()
    if not value.strip().isdecimal() or int(value) < 1:
        raise SystemExit(
            f"worker count must be a positive integer or 'auto', got {value!r}"
        )
    return int(value)


def _criteria(args):
    if not args.criteria:
        return CRITERIA
    chosen = tuple(c.strip() for c in args.criteria.split(","))
    for i, c in enumerate(chosen):
        if c not in CRITERIA or c in chosen[:i]:
            why = "repeated" if c in CRITERIA else "not one of " + ", ".join(CRITERIA)
            raise SystemExit(f"--criteria {args.criteria}: entry {i + 1}, {c!r}, is {why}")
    return chosen


def _run_and_write(name, cells, args, extra=None):
    """Sweep ``cells`` and write <name>.csv; ``extra`` holds leading
    columns with one value for every row."""
    config = _checked(
        SweepConfig,
        cells=tuple(cells),
        samples_per_cell=args.samples,
        master_seed=args.seed,
        eps=args.eps,
        workers=_workers(args),
    )
    columns = csv_columns(_criteria(args), extra=extra or ())
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"--out {args.out}: {exc.strerror}")
    if results_current(args.out, name, config, columns):
        print(f"{name}: results are current, skipping")
        return os.path.join(args.out, name + ".csv")

    t0 = time.perf_counter()
    stats = run_sweep(config)
    try:
        path = write_results(
            args.out, name, stats, config, columns, extra, wall_s=time.perf_counter() - t0
        )
    except OSError as exc:
        raise SystemExit(f"--out {args.out}: {exc.strerror}")
    print(f"{name}: wrote {path}")
    return path


def cmd_scan_rank(args):
    _require(args, "d1", "d2", "k")
    cells = [(args.d1, args.d2, k) for k in _parse_range(args.k)]
    _run_and_write(f"scan_rank_{args.d1}x{args.d2}", cells, args)
    return 0


def cmd_scan_dim(args):
    _require(args, "d1", "d2", "k")
    ks = _parse_range(args.k)
    if len(ks) != 1:
        raise SystemExit("scan-dim expects a single rank --k")
    cells = [(args.d1, d2, ks[0]) for d2 in _parse_range(args.d2)]
    _run_and_write(f"scan_dim_d1{args.d1}_k{ks[0]}", cells, args)
    return 0


def cmd_asymmetry(args):
    _require(args, "d12")
    d12 = args.d12
    factorizations = [
        (d1, d12 // d1) for d1 in range(2, math.isqrt(max(d12, 0)) + 1) if d12 % d1 == 0
    ]
    if len(factorizations) < 2:
        raise SystemExit(
            f"d12={d12} does not admit two factorizations with both factors >= 2"
        )
    cells = [(d1, d2, k) for d1, d2 in factorizations for k in (2, d12)]
    _run_and_write(f"asymmetry_{d12}", cells, args, extra={"d12": d12})
    return 0


def cmd_bounds(args):
    _require(args, "d1", "d2")
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
    sub.add_argument("--workers", default=None, help="worker count or 'auto'")
    sub.add_argument("--criteria", default=None,
                     help="comma-separated subset of criteria columns to emit")


def build_parser(defaults=None):
    """The command-line parser; ``defaults`` (flag name -> value, from a
    --config file) pre-set the subcommands' flags. _load_config has checked
    that each key names a flag of the subcommand being run."""
    parser = argparse.ArgumentParser(
        prog="entdetect",
        description="Entanglement-detection hierarchy on Haar-random states",
    )
    parser.add_argument("--config", default=None, help="JSON file of default flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-rank", help="sweep rank k at fixed d1 x d2")
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--k", help="rank or range, e.g. 2..10")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_scan_rank)

    p = sub.add_parser("scan-dim", help="sweep d2 at fixed d1 and rank")
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", help="d2 value or range, e.g. 3..10")
    p.add_argument("--k")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_scan_dim)

    p = sub.add_parser("asymmetry", help="factorizations of a total dimension")
    p.add_argument("--d12", type=int)
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_asymmetry)

    p = sub.add_parser("bounds", help="closed-form predictors for one cell")
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the invariant suites")
    _add_run_flags(p, samples_default=1000)
    p.set_defaults(func=cmd_verify)

    if defaults:
        for p in sub.choices.values():
            p.set_defaults(**defaults)
    return parser


def _load_config(path, args):
    """The flags of a --config file, for the subcommand ``args`` parsed."""
    # The namespace holds one entry per flag of the parsed subcommand,
    # beside the top-level --config and the subcommand's own bookkeeping.
    flags = set(vars(args)) - {"config", "command", "func"}
    try:
        with open(path) as fh:
            defaults = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--config {path}: {exc}")
    if not isinstance(defaults, dict):
        raise SystemExit(f"--config {path}: expected a JSON object of flags")
    for key, value in defaults.items():
        if key not in flags:
            raise SystemExit(f"--config {path}: {key!r} is not a flag of {args.command}")
        if value is None or isinstance(value, (list, dict)):
            raise SystemExit(f"--config {path}: {key!r} must be a number or a string")
    # As strings, the values go through each flag's type= conversion, as if typed.
    return {key: str(value) for key, value in defaults.items()}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if args.config:
        # Parse again with the file's flags as defaults, so explicit
        # flags still override them.
        args = build_parser(_load_config(args.config, args)).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
