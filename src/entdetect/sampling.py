"""Seed-reproducible Haar sampling of rank-k bipartite mixed states.

A rank-k mixed state on d1 (x) d2 is produced by drawing a Haar-uniform
pure state on d1 (x) d2 (x) k (independent standard complex Gaussian
amplitudes, normalized) and tracing out the k-dimensional third system.

Streams are keyed by (master_seed, d1, d2, k, trial_index) through
numpy's SeedSequence, so every trial is reproducible independently of
scheduling, worker count, and platform word size. Gaussians are drawn
with a fixed transform: one ``standard_normal`` call for all real parts
followed by one for all imaginary parts.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix

RANK_TOL = 1e-10


@dataclass(frozen=True)
class SampleSpec:
    """One sample's identity: cell (d1, d2, k) plus seed and trial index."""

    d1: int
    d2: int
    k: int
    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if self.d1 < 2 or self.d2 < 2:
            raise ValueError("both subsystem dimensions must be at least 2")
        if not 1 <= self.k <= self.d1 * self.d2:
            raise ValueError(f"rank k={self.k} outside [1, {self.d1 * self.d2}]")
        if self.trial_index < 0:
            raise ValueError("trial_index must be non-negative")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 unsigned bits")


def _stream(spec, redraw=0):
    key = (spec.d1, spec.d2, spec.k, spec.trial_index, redraw)
    return np.random.default_rng(np.random.SeedSequence(spec.master_seed, spawn_key=key))


def sample_tripartite_pure(spec):
    """Haar-uniform unit vector on C^(d1*d2*k).

    A numerically zero draw (probability zero) triggers exactly one
    re-draw from a derived sub-stream; a second failure is an error.
    """
    n = spec.d1 * spec.d2 * spec.k
    for redraw in (0, 1):
        rng = _stream(spec, redraw)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm > 0:
            return v / norm
    raise RuntimeError("drew a zero vector twice; RNG is broken")


def sample_reduced_state(spec):
    """Rank-k bipartite mixed state from the tripartite pure-state draw."""
    psi = sample_tripartite_pure(spec)
    a = psi.reshape(spec.d1 * spec.d2, spec.k)
    # A A^dag is PSD with unit trace by construction; skip the eig check.
    return DensityMatrix(a @ a.conj().T, spec.d1, spec.d2, check=False)


def numerical_rank(rho, tol=RANK_TOL):
    """Number of eigenvalues above ``tol``."""
    return int((np.linalg.eigvalsh(rho.mat) > tol).sum())

