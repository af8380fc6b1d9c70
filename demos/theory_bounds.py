"""Compare the closed-form average entropy/purity formulas against a
Monte Carlo estimate, and print the rank thresholds they imply.

Run with: python3 demos/theory_bounds.py
"""

import numpy as np

from entdetect import (
    average_purity,
    entropy_rank_threshold,
    page_entropies,
    purity,
    realignment_rank_bound,
    sample_chunks,
    spectrum,
)
from entdetect.linalg import von_neumann_entropy


def main():
    d1, d2, k, n = 2, 5, 8, 2000
    ent = []
    pur = []
    for chunk in sample_chunks(d1, d2, k, 11, 0, n):
        ent.extend(von_neumann_entropy(spectrum(chunk.gram, d1 * d2)))
        pur.extend(purity(chunk))
    s12 = page_entropies(d1, d2, k)[2]
    print(f"rank-{k} states on {d1}x{d2}, {n} samples:")
    print(f"  mean entropy  {np.mean(ent):.4f}   formula {s12:.4f}")
    print(f"  mean purity   {np.mean(pur):.4f}   formula {average_purity(d1, d2, k):.4f}")
    print()
    print("rank thresholds for 2x5:")
    print(f"  entropy criterion needs rank <= {entropy_rank_threshold(d1, d2)}")
    print(f"  realignment average bound: rank < {realignment_rank_bound(d1, d2):.3f}")


if __name__ == "__main__":
    main()
