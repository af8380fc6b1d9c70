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

sample_chunks seeds those streams a block of BLOCK_SIZE trials at a time
rather than building a SeedSequence per trial. It runs SeedSequence's
entropy assembly, ``mix_entropy`` hash and ``generate_state(4, uint64)``
(numpy's ``bit_generator.pyx``) over all of the block's trial indices at
once in uint32 arrays; the words that depend only on the seed and the
cell are mixed once per block. Each trial's four words are handed to a
PCG64 of its own through numpy's ISeedSequence interface, so numpy runs
PCG64's seeding step itself. The block is drawn and built a chunk at a
time: each trial's draw fills one row of the chunk's array, the chunk's
norms are one stacked pass, and its ``A A^dag`` products, their checks
and their symmetrization are made in the chunk's one stack, a slab of
at most linalg.SLAB_ENTRIES entries (or one matrix) at a time. It is
yielded as one stacked DensityMatrix for the kernel to evaluate in one
call. The draw's real and imaginary halves are copied into one complex
array, which is normalized in place, so neither the real draw nor the
unnormalized vectors are held while the kernel runs, and the
generators' suspended frames hold no chunk's vectors once its stack is
built. The chunk is built by DensityMatrix.stack from its ``(B, d1*d2,
k)`` factors A, so for k < d1*d2 it also carries the k x k products
``A^dag A``, from which the kernel takes each state's spectrum, and for
d1*k < d2 the support stand-in ``core``, on which it solves the rest; a
stack with a core forms no n x n ``A A^dag`` unless it is read. The
stacked norm gives each row the bits of ``np.linalg.norm`` of that row
alone.

A chunk's size is its own budget, apart from the build's slab
(``_chunk_size``): at most BLOCK_SIZE states, at least MIN_CHUNK, and
between the two as many as fit in CHUNK_ENTRIES complex entries, each
state counted as the larger of its factor entries and the square
operator the kernel solves. So a block is one chunk wherever its states
fit, a chunk above MIN_CHUNK holds at most CHUNK_ENTRIES entries a
stack, and a wide cell's chunk holds MIN_CHUNK states (a block's last
chunk may be short), whose stack grows with the cell while its build's
temporaries stay one slab's. A state's bits do not depend on its
chunk-mates, so the chunk size never changes a number.

numpy's own SeedSequence is only the guard: the PCG64 state that the
first words of every block, a lone trial's included, seed through the
same handoff is compared with numpy's, and a mismatch, as a numpy that
changed these internals would give, raises RuntimeError before any
state of the block is yielded.

A trial is named by its plain arguments ``(d1, d2, k, master_seed,
trial_index)``, checked by check_cell and check_seed, and
sample_chunks is the one path that draws it; sample_reduced_state and
sample_tripartite_pure are its one-trial views.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .linalg import DensityMatrix, check_dims

# Trials seeded and guarded per pass of sample_chunks, and per block of a
# sweep.
BLOCK_SIZE = 256
# Trial indices lie below this, so each is one word of the spawn key.
MAX_TRIALS = 2 ** 32
# Fewest states per chunk (BLOCK_SIZE is 8 such chunks), whatever their
# width: a wide cell's chunk holds MIN_CHUNK states.
MIN_CHUNK = BLOCK_SIZE // 8
# Complex entries a chunk above MIN_CHUNK states may hold, counting each
# state as the larger of its factor entries and the square operator the
# kernel solves: MIN_CHUNK stacks of 32 x 32, so no chunk of a cell up to
# 32 wide holds more than such a cell's chunk at the floor.
CHUNK_ENTRIES = MIN_CHUNK * 32 ** 2

# SeedSequence's hash constants and pool size (numpy bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


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


class _TrialSeed(ISeedSequence):
    """A seed sequence whose ``generate_state`` is one trial's hashed words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _stream_states(d1, d2, k, master_seed, start, stop):
    """The PCG64 seed words of trials ``start .. stop - 1``, all below
    MAX_TRIALS, hashed in one pass as one C-contiguous ``(B, 4)`` uint64
    array; the state the first row seeds is checked against numpy's."""
    trials = np.arange(start, stop, dtype=np.uint32)
    seed_words = (_words(master_seed) + [0] * _POOL_SIZE)[:_POOL_SIZE]
    pool = _mix_entropy(seed_words + _words(d1) + _words(d2) + _words(k) + [trials, 0])
    words = np.stack(_generate_state(pool), axis=1)
    reference = np.random.SeedSequence(master_seed, spawn_key=(d1, d2, k, start, 0))
    if np.random.PCG64(_TrialSeed(words[0])).state != np.random.PCG64(reference).state:
        raise RuntimeError(
            "vectorised SeedSequence seeding disagrees with numpy's own; "
            "numpy's SeedSequence or PCG64 seeding has changed"
        )
    return words


def _chunk_size(d1, d2, k):
    """Trials per chunk: as many states as fit in CHUNK_ENTRIES complex
    entries, at least MIN_CHUNK and at most BLOCK_SIZE, each counted as
    the larger of its ``d1*d2*k`` factor entries and the square operator
    the kernel solves, ``d1^2 k`` wide with a support stand-in (d1*k <
    d2), else ``d1*d2``."""
    width = d1 * d1 * k if d1 * k < d2 else d1 * d2
    return min(BLOCK_SIZE, max(MIN_CHUNK, CHUNK_ENTRIES // max(width ** 2, d1 * d2 * k)))


def _norms(v):
    """The norm of each row of a complex ``(B, n)`` array, each with the
    bits of ``np.linalg.norm`` of that row alone: the square root of
    ``x.real . x.real + x.imag . x.imag``. Each ``(1, n) @ (n, 1)``
    product of a row's stride-2 real or imaginary view is the same
    stride-2 ddot that ``norm`` makes; the rows' unit-stride halves of the
    draw would give other bits. A norm that is not positive raises."""
    re, im = v.real[:, None, :], v.imag[:, None, :]
    norms = np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).reshape(-1)
    if not (norms > 0).all():
        raise RuntimeError("drew a zero vector; the RNG is broken")
    return norms


def _gaussians(words, n):
    """The standard complex Gaussian amplitudes of the trials seeded by
    ``words``, as the rows of one complex ``(B, n)`` array: each trial's
    one ``standard_normal`` call of 2n numbers gives its real parts, then
    its imaginary parts. The real draw is freed on return."""
    x = np.empty((len(words), 2 * n))
    for row, w in zip(x, words):
        np.random.Generator(np.random.PCG64(_TrialSeed(w))).standard_normal(out=row)
    v = np.empty((len(words), n), complex)
    v.real, v.imag = x[:, :n], x[:, n:]
    return v


def _normalized(v):
    """The rows of a complex ``(B, n)`` array divided by their norms
    (_norms), in place."""
    v /= _norms(v)[:, None]
    return v


def _unit_vectors(d1, d2, k, master_seed, start, stop):
    """Yield the Haar-uniform unit vectors on C^(d1*d2*k) of trials
    ``start .. stop - 1``, in trial order, as the rows of one ``(B,
    d1*d2*k)`` array per chunk: each block of BLOCK_SIZE trials is cut
    into chunks of ``_chunk_size(d1, d2, k)`` trials, its last one short.
    """
    check_cell(d1, d2, k)
    check_seed(master_seed)
    if start < 0:
        raise ValueError(f"trial index must be non-negative, got {start!r}")
    if stop > MAX_TRIALS:
        raise ValueError(f"trial indices must lie below 2**32, got stop={stop!r}")
    n = d1 * d2 * k
    size = _chunk_size(d1, d2, k)
    for block in range(start, stop, BLOCK_SIZE):
        words = _stream_states(d1, d2, k, master_seed, block, min(block + BLOCK_SIZE, stop))
        for lo in range(0, len(words), size):
            # yielded unnamed, so this frame holds no chunk while suspended
            yield _normalized(_gaussians(words[lo:lo + size], n))


def sample_chunks(d1, d2, k, master_seed, start, stop):
    """Yield the rank-k states of trials ``start .. stop - 1`` of cell
    (d1, d2, k), in trial order, as one stacked DensityMatrix per chunk
    of ``_unit_vectors``."""
    def build(psi):
        # A A^dag is PSD with unit trace by construction; no eig check.
        return DensityMatrix.stack(psi.reshape(len(psi), d1 * d2, k), d1, d2)

    # A map, not a loop, so no loop variable in this suspended frame holds
    # a chunk's vectors once its stack is built.
    yield from map(build, _unit_vectors(d1, d2, k, master_seed, start, stop))


def sample_tripartite_pure(d1, d2, k, master_seed, trial_index=0):
    """Haar-uniform unit vector on C^(d1*d2*k) of one trial."""
    [psi] = next(_unit_vectors(d1, d2, k, master_seed, trial_index, trial_index + 1))
    return psi


def sample_reduced_state(d1, d2, k, master_seed, trial_index=0):
    """Rank-k bipartite mixed state of one trial, a stack of one."""
    return next(sample_chunks(d1, d2, k, master_seed, trial_index, trial_index + 1))
