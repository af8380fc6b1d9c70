"""Walk through the five detection criteria on a few hand-picked states.

Run with: python3 demos/single_state_checks.py
"""

import numpy as np

from entdetect import DensityMatrix, evaluate_state, CRITERIA


def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), 2, 2)


def werner(p):
    """p * Bell + (1-p)/4 * identity; entangled iff p > 1/3."""
    mat = p * bell().mat + (1 - p) / 4 * np.eye(4)
    return DensityMatrix(mat, 2, 2)


def show(label, rho):
    """Print the LN and verdicts of ``rho``, a stack of one state."""
    recs = evaluate_state(rho)
    flags = "  ".join(
        f"{c}={'Y' if detected else '.'}" for c, detected in zip(CRITERIA, recs.detected()[0])
    )
    print(f"{label:<22} LN={recs.ln()[0]:.4f}   {flags}")


def main():
    print("state                  log-negativity and per-criterion verdicts")
    show("Bell pair", bell())
    show("maximally mixed", DensityMatrix(np.eye(4) / 4, 2, 2))
    for p in (0.2, 0.4, 0.7, 1.0):
        show(f"Werner p={p}", werner(p))
    print()
    print("The Werner family crosses the separability boundary at p = 1/3;")
    print("the weaker criteria (entropy, realignment) only wake up deeper")
    print("into the entangled region, illustrating the detection hierarchy.")


if __name__ == "__main__":
    main()
