"""Seed-reproducible Haar sampling of rank-k bipartite mixed states.

A rank-k mixed state on d1 (x) d2 is produced by drawing a Haar-uniform
pure state on d1 (x) d2 (x) k (independent standard complex Gaussian
amplitudes, normalized) and tracing out the k-dimensional third system.

Every trial owns the stream ``default_rng(SeedSequence(master_seed,
spawn_key=(d1, d2, k, trial_index, 0)))``, so every trial is
reproducible independently of scheduling, worker count, and platform
word size. Gaussians are drawn with a fixed transform: one
``standard_normal`` call for all real parts followed by one for all
imaginary parts.

sample_states computes those streams a block of trials at a time rather
than building a SeedSequence per trial. It runs SeedSequence's entropy
assembly, ``mix_entropy`` hash and ``generate_state(4, uint64)`` (numpy's
``bit_generator.pyx``) over all of the block's trial indices at once in
uint32 arrays; the words that depend only on the seed and the cell are
mixed once per block. Each trial's PCG64 state then follows from PCG64's
seeding step, two 128-bit LCG steps (O'Neill 2014), and is assigned to
one reused PCG64 before its draw. The states are still drawn and built
one at a time, so memory does not grow with the block. numpy's own
SeedSequence is still used for the redraw sub-stream of a zero draw
(spawn key ending in 1), for trial indices of 2**32 and above (whose
keys are two words long), for a block of a single trial, and as a guard:
the first computed state of every block is compared with numpy's, and a
mismatch, as a numpy that changed these internals would give, raises
RuntimeError before any state of the block is yielded.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix

RANK_TOL = 1e-10

# Trials seeded, guarded and drawn per pass of sample_states.
STREAM_BLOCK = 256

# SeedSequence's hash constants and pool size (numpy bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# PCG64's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _words(x):
    """SeedSequence's uint32 words of a non-negative integer (numpy's
    included, as SeedSequence takes them), low word first."""
    x = int(x)
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def _mix_entropy(entropy):
    """SeedSequence.mix_entropy into a fresh pool. Each word is an int or
    a uint32 array (one entry per trial); the hash constant does not
    depend on the data, so arrays and ints mix alike."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool):
    """SeedSequence.generate_state(4, np.uint64) of a pool of uint32 arrays,
    as four uint64 arrays."""
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append((value ^ (value >> 16)).astype(np.uint64))
    return [lo | (hi << np.uint64(32)) for lo, hi in zip(out[::2], out[1::2])]


def _pcg64_state(seed_hi, seed_lo, inc_hi, inc_lo):
    """PCG64's state dict after pcg64_set_seed: the LCG is started at 0,
    with increment 2*initseq + 1, stepped, offset by initstate and
    stepped again."""
    inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
    state = (((inc + ((seed_hi << 64) | seed_lo)) * _PCG_MULT) + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _numpy_stream(master_seed, key):
    """PCG64 state dict of ``default_rng(SeedSequence(master_seed,
    spawn_key=key))``, seeded by numpy itself."""
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.PCG64(seq).state


def _stream_states(d1, d2, k, master_seed, start, stop):
    """PCG64 state dicts of trials ``start .. stop - 1`` (redraw 0).

    Trials below 2**32 are hashed together, and the first hashed state is
    checked against numpy's own seeding; the rest are seeded by numpy. So
    is a lone trial, whose check would compute its state anyway.
    """
    split = min(max(start, 2 ** 32), stop)
    if split - start < 2:
        split = start
    states = []
    if start < split:
        trials = np.arange(start, split, dtype=np.uint32)
        seed_words = (_words(master_seed) + [0] * _POOL_SIZE)[:_POOL_SIZE]
        pool = _mix_entropy(seed_words + _words(d1) + _words(d2) + _words(k) + [trials, 0])
        words = [w.tolist() for w in _generate_state(pool)]
        states = [_pcg64_state(*w) for w in zip(*words)]
        if states[0] != _numpy_stream(master_seed, (d1, d2, k, start, 0)):
            raise RuntimeError(
                "vectorised SeedSequence seeding disagrees with numpy's own; "
                "numpy's SeedSequence or PCG64 seeding has changed"
            )
    states += [_numpy_stream(master_seed, (d1, d2, k, t, 0)) for t in range(split, stop)]
    return states


def _draw(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v, np.linalg.norm(v)


def _unit_vectors(d1, d2, k, master_seed, start, stop):
    """Yield the Haar-uniform unit vector on C^(d1*d2*k) of each trial
    ``start .. stop - 1`` in turn.

    A numerically zero draw (probability zero) triggers exactly one
    re-draw from the trial's sub-stream with spawn key ending in 1; a
    second failure is an error.
    """
    SampleSpec(d1, d2, k, master_seed, start)  # validates the arguments
    n = d1 * d2 * k
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for lo in range(start, stop, STREAM_BLOCK):
        hi = min(lo + STREAM_BLOCK, stop)
        for trial, state in zip(range(lo, hi), _stream_states(d1, d2, k, master_seed, lo, hi)):
            bitgen.state = state
            v, norm = _draw(rng, n)
            if not norm > 0:
                bitgen.state = _numpy_stream(master_seed, (d1, d2, k, trial, 1))
                v, norm = _draw(rng, n)
                if not norm > 0:
                    raise RuntimeError("drew a zero vector twice; RNG is broken")
            yield v / norm


def sample_states(d1, d2, k, master_seed, start, stop):
    """Yield the rank-k state of each trial ``start .. stop - 1`` of cell
    (d1, d2, k), in trial order, each as its own DensityMatrix."""
    for psi in _unit_vectors(d1, d2, k, master_seed, start, stop):
        a = psi.reshape(d1 * d2, k)
        # A A^dag is PSD with unit trace by construction; skip the eig check.
        yield DensityMatrix(a @ a.conj().T, d1, d2, check=False)


def sample_tripartite_pure(spec):
    """Haar-uniform unit vector on C^(d1*d2*k) of one trial."""
    t = spec.trial_index
    return next(_unit_vectors(spec.d1, spec.d2, spec.k, spec.master_seed, t, t + 1))


def sample_reduced_state(spec):
    """Rank-k bipartite mixed state of one trial."""
    t = spec.trial_index
    return next(sample_states(spec.d1, spec.d2, spec.k, spec.master_seed, t, t + 1))


def numerical_rank(rho, tol=RANK_TOL):
    """Number of eigenvalues above ``tol``."""
    return int((np.linalg.eigvalsh(rho.mat) > tol).sum())
