"""Sweep the rank of random 2x5 mixed states and tabulate how often each
criterion detects entanglement.

Run with: python3 demos/rank_sweep.py  (a couple of seconds)
"""

from entdetect import CRITERIA, aggregate, run_cell


def main():
    d1, d2, samples = 2, 5, 1000
    header = "k    " + "".join(f"{c:>14}" for c in CRITERIA)
    print(f"fraction of NPT 2x5 states detected, {samples} samples per rank")
    print(header)
    for k in range(2, d1 * d2 + 1):
        stats = aggregate(run_cell(d1, d2, k, samples, master_seed=7), (d1, d2, k))
        cells = []
        for c in CRITERIA:
            f = stats.per_criterion[c].fraction
            cells.append(f"{f:>14.3f}" if f is not None else f"{'--':>14}")
        print(f"{k:<5}" + "".join(cells))
    print()
    print("Partial transpose and reduction stay at 1.0 for every rank in")
    print("the qubit-qudit case, while the other criteria decay and the")
    print("entropy criterion dies entirely once the rank exceeds 5.")


if __name__ == "__main__":
    main()
