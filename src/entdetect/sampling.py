"""Seed-reproducible Haar sampling of rank-k bipartite mixed states.

A rank-k mixed state on d1 (x) d2 is produced by drawing a Haar-uniform
pure state on d1 (x) d2 (x) k (independent standard complex Gaussian
amplitudes, normalized) and tracing out the k-dimensional third system.

Every trial owns the stream ``default_rng(SeedSequence(master_seed,
spawn_key=(d1, d2, k, trial_index, 0)))``, so every trial is
reproducible independently of scheduling, worker count, and platform
word size. Trial indices lie below 2**32, so each is one word of the
spawn key. A trial's Gaussians are one ``standard_normal`` call of 2n
numbers: the first n are the real parts, the last n the imaginary parts.
A draw whose norm is not positive (an event of probability zero) raises
RuntimeError.

sample_states seeds those streams a block of BLOCK_SIZE trials at a time
rather than building a SeedSequence per trial. It runs SeedSequence's
entropy assembly, ``mix_entropy`` hash and ``generate_state(4, uint64)``
(numpy's ``bit_generator.pyx``) over all of the block's trial indices at
once in uint32 arrays; the words that depend only on the seed and the
cell are mixed once per block. Each trial's PCG64 state then follows from
PCG64's seeding step, two 128-bit LCG steps (O'Neill 2014). The block is
drawn and built a chunk at a time: each trial's state is assigned to one
reused PCG64 right before its draw fills one row of the chunk's array,
and the chunk's unit vectors, its ``A A^dag`` products and their checks
and symmetrization are each one stacked pass. A chunk holds as many
density matrices as fit in CHUNK_ENTRIES complex entries, so its memory
does not grow with the block. numpy's own SeedSequence is only the
guard: the first hashed state of every block, a lone trial's included,
is compared with numpy's, and a mismatch, as a numpy that changed these
internals would give, raises RuntimeError before any state of the block
is yielded.

A trial is named by its plain arguments ``(d1, d2, k, master_seed,
trial_index)``, checked by check_cell and check_seed, and
sample_states is the one path that draws it; sample_reduced_state and
sample_tripartite_pure are its one-trial views.
"""

import numpy as np

from .linalg import DensityMatrix, check_dims

# Trials seeded and guarded per pass of sample_states, and per block of a
# sweep.
BLOCK_SIZE = 256
# Trial indices lie below this, so each is one word of the spawn key.
MAX_TRIALS = 2 ** 32
# Complex entries in one chunk's stack of density matrices (64 KB). It
# bounds the chunk's temporaries: a 2x5 sweep's peak RSS grows by
# ~0.15-0.5 MB at 2**12 and by ~2 MB at 2**14, for no more speed on small
# cells.
CHUNK_ENTRIES = 2 ** 12

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


def check_cell(d1, d2, k):
    """Reject a cell (d1, d2, k) of dimension below 2 or rank outside [1, d1*d2]."""
    check_dims(d1, d2)
    if not 1 <= k <= d1 * d2:
        raise ValueError(f"rank k={k} outside [1, {d1 * d2}]")


def check_seed(master_seed):
    """Reject a master seed that does not fit in 64 unsigned bits."""
    if not 0 <= master_seed < 2 ** 64:
        raise ValueError("master_seed must fit in 64 unsigned bits")


def check_samples(n):
    """Reject a sample count below 1 or above MAX_TRIALS."""
    if not 1 <= n <= MAX_TRIALS:
        raise ValueError(f"sample count must lie in [1, 2**32], got {n!r}")


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


def _stream_states(d1, d2, k, master_seed, start, stop):
    """PCG64 state dicts of trials ``start .. stop - 1``, all below
    MAX_TRIALS, hashed in one pass; the first is checked against numpy's
    own seeding."""
    trials = np.arange(start, stop, dtype=np.uint32)
    seed_words = (_words(master_seed) + [0] * _POOL_SIZE)[:_POOL_SIZE]
    pool = _mix_entropy(seed_words + _words(d1) + _words(d2) + _words(k) + [trials, 0])
    words = [w.tolist() for w in _generate_state(pool)]
    states = [_pcg64_state(*w) for w in zip(*words)]
    reference = np.random.SeedSequence(master_seed, spawn_key=(d1, d2, k, start, 0))
    if states[0] != np.random.PCG64(reference).state:
        raise RuntimeError(
            "vectorised SeedSequence seeding disagrees with numpy's own; "
            "numpy's SeedSequence or PCG64 seeding has changed"
        )
    return states


def _chunk_size(d1, d2):
    """Trials per chunk: as many ``(d1*d2)^2`` density matrices as fit in
    CHUNK_ENTRIES complex entries, and at least one."""
    return max(1, CHUNK_ENTRIES // (d1 * d2) ** 2)


def _unit_vectors(d1, d2, k, master_seed, start, stop):
    """Yield the Haar-uniform unit vectors on C^(d1*d2*k) of trials
    ``start .. stop - 1``, in trial order, as the rows of one ``(B,
    d1*d2*k)`` array per chunk: each block of BLOCK_SIZE trials is cut
    into chunks of ``_chunk_size(d1, d2)`` trials, its last one short.
    """
    check_cell(d1, d2, k)
    check_seed(master_seed)
    if start < 0:
        raise ValueError(f"trial index must be non-negative, got {start!r}")
    if stop > MAX_TRIALS:
        raise ValueError(f"trial indices must lie below 2**32, got stop={stop!r}")
    n = d1 * d2 * k
    size = _chunk_size(d1, d2)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for block in range(start, stop, BLOCK_SIZE):
        states = _stream_states(d1, d2, k, master_seed, block, min(block + BLOCK_SIZE, stop))
        for lo in range(0, len(states), size):
            chunk = states[lo:lo + size]
            x = np.empty((len(chunk), 2 * n))
            for row, state in zip(x, chunk):
                bitgen.state = state
                rng.standard_normal(out=row)
            v = x[:, :n] + 1j * x[:, n:]
            # one norm per row: the 1-D call gives the 1-D draw's bits
            norms = np.array([np.linalg.norm(row) for row in v])
            if not (norms > 0).all():
                raise RuntimeError("drew a zero vector; the RNG is broken")
            yield v / norms[:, None]


def sample_states(d1, d2, k, master_seed, start, stop):
    """Yield the rank-k state of each trial ``start .. stop - 1`` of cell
    (d1, d2, k), in trial order, each as its own DensityMatrix."""
    for psi in _unit_vectors(d1, d2, k, master_seed, start, stop):
        a = psi.reshape(len(psi), d1 * d2, k)
        # A A^dag is PSD with unit trace by construction; no eig check.
        yield from DensityMatrix.stack(a @ a.conj().transpose(0, 2, 1), d1, d2)


def sample_tripartite_pure(d1, d2, k, master_seed, trial_index=0):
    """Haar-uniform unit vector on C^(d1*d2*k) of one trial."""
    [psi] = next(_unit_vectors(d1, d2, k, master_seed, trial_index, trial_index + 1))
    return psi


def sample_reduced_state(d1, d2, k, master_seed, trial_index=0):
    """Rank-k bipartite mixed state of one trial."""
    return next(sample_states(d1, d2, k, master_seed, trial_index, trial_index + 1))
