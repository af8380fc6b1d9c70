"""Aggregation into the hierarchy's figures of merit, plus the closed-form
Haar-average predictors (Page entropies, purity, rank thresholds).

aggregate reads a cell's evaluated states as columns (criteria.Records).

Aggregate fields that are undefined (no detections, or an empty
denominator) carry None, never 0: "no detection" and "zero entanglement"
are different statements.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import CRITERIA, EPS, check_eps
from .linalg import check_dims
from .sampling import check_cell

EULER_GAMMA = 0.5772156649015329
# Harmonic numbers from this on come from their asymptotic series.
HARMONIC_SERIES_FROM = 32


@dataclass(frozen=True)
class CriterionStats:
    n_detected: int
    fraction: float | None        # F over the LN > 0 population
    fraction_stderr: float | None  # Bernoulli standard error sqrt(F(1-F)/n)
    mean_ln: float | None          # M, mean LN over detected records
    min_ln: float | None           # m, min LN over detected records


@dataclass(frozen=True)
class SweepStats:
    d1: int
    d2: int
    k: int
    n_total: int
    n_npt: int
    per_criterion: dict = field(default_factory=dict)


def aggregate(records, cell, eps=EPS):
    """Reduce the Records of the evaluated states of the (d1, d2, k)
    ``cell`` to SweepStats.

    The columns are read at ``eps`` once: each state's LN and whether each
    criterion fires, by Records.ln and Records.detected. Only
    states with LN above 0 enter the fraction denominator; means use exact
    (fsum) accumulation so the result is independent of record order and
    of shard merging. Counts are Python ints.
    """
    check_eps(eps)
    check_cell(*cell)
    if not len(records):
        raise ValueError("cannot aggregate an empty record list")
    ln = records.ln(eps)
    detected = records.detected(eps)
    population = ln > 0.0
    ln_pos, detected_pos = ln[population], detected[population]
    n_pos = len(ln_pos)
    n_npt = int(np.count_nonzero(detected[:, 0]))  # CRITERIA[0] is pt

    per = {}
    for i, name in enumerate(CRITERIA):
        detected_ln = ln_pos[detected_pos[:, i]].tolist()
        n_det = len(detected_ln)
        if n_pos == 0:
            per[name] = CriterionStats(n_det, None, None, None, None)
            continue
        f = n_det / n_pos
        stderr = math.sqrt(f * (1.0 - f) / n_pos)
        if n_det == 0:
            per[name] = CriterionStats(0, f, stderr, None, None)
        else:
            per[name] = CriterionStats(
                n_det, f, stderr, math.fsum(detected_ln) / n_det, min(detected_ln)
            )
    d1, d2, k = cell
    return SweepStats(d1, d2, k, len(records), n_npt, per)


def _harmonic(n):
    """The harmonic number H(n) = sum_{j=1}^n 1/j: an exact fsum below
    HARMONIC_SERIES_FROM, else the Euler-Maclaurin series through 1/n^8,
    whose first omitted term, 1/(132 n^10), is below 1e-17 there."""
    if n < HARMONIC_SERIES_FROM:
        return math.fsum(1.0 / j for j in range(1, n + 1))
    x = 1.0 / (n * n)
    return (math.log(n) + EULER_GAMMA + 0.5 / n
            - x * (1 / 12 - x * (1 / 120 - x * (1 / 252 - x / 240))))


def _page_entropy(a, b):
    """Page's exact mean entropy (natural log) of either side of a
    Haar-random pure state on a (x) b: sum_{j=n+1}^{mn} 1/j - (m-1)/(2n)
    = H(mn) - H(n) - (m-1)/(2n), with m the smaller and n the larger
    dimension (Page 1993, Sen 1996)."""
    m, n = sorted((a, b))
    return _harmonic(m * n) - _harmonic(n) - (m - 1) / (2.0 * n)


def page_entropies(d1, d2, k):
    """Haar-average entropies (natural log) of rho_1, rho_2 and rho for
    rank-k states: each is one side of the pure state on d1 (x) d2 (x) k,
    cut between that system and the rest."""
    check_cell(d1, d2, k)
    return _page_entropy(d1, d2 * k), _page_entropy(d2, d1 * k), _page_entropy(d1 * d2, k)


def average_purity(d1, d2, k):
    """Haar-average Tr rho^2 of a rank-k state: (d1 d2 + k)/(d1 d2 k + 1)."""
    check_cell(d1, d2, k)
    return (d1 * d2 + k) / (d1 * d2 * k + 1)


def entropy_rank_threshold(d1, d2):
    """Rank above which the entropy criterion fails on Haar average."""
    check_dims(d1, d2)
    return max(d1, d2)


def realignment_rank_bound(d1, d2):
    """Rank at which the Haar-average purity bound on realignment reaches 1.

    ||R(rho)||_1 <= d1 sqrt(Tr rho^2), and the right-hand side evaluated at
    the Haar-average purity falls to 1 at this rank. It is a statement
    about the average state only: an individual state above this rank
    can still be detected if its purity exceeds 1/d1^2.

    The dimensions may come in either order: d1 above is the smaller.
    Returns +inf for equal dimensions, where the bound is vacuous.
    """
    check_dims(d1, d2)
    d1, d2 = sorted((d1, d2))
    if d1 == d2:
        return math.inf
    return (d1 ** 3 * d2 - 1) / (d1 * (d2 - d1))

