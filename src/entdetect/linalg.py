"""Dense complex linear algebra for bipartite density matrices.

Everything here is a pure function of its inputs. The fixed basis
convention is ``|i mu>`` with the subsystem-1 index major, i.e. the
composite row index of an entry ``<i mu| rho |j nu>`` is ``i*d2 + mu``.
A DensityMatrix is a stack of states; the helpers work on each of its
states, and on the last two axes of an array (the last one for spectra),
and give each matrix of a stack the same bits as a stack of that matrix
alone. A state's spectrum is read from its ``gram`` stand-in, the k x k
matrix A^dag A of a rank-k state built from its factor A (the same
nonzero eigenvalues as rho = A A^dag), padded with exact zeros for rho's
null space; singular values are taken from the tall orientation of a
matrix. Both hand LAPACK a smaller problem for the same numbers, to
rounding.

A rank-k state with d1*k < d2 also carries a ``core``: its marginal
rho2 has rank at most d1*k, so the state lives on C^d1 (x) supp(rho2).
The core is the same state written on C^d1 (x) C^(d1*k) through the R
factor of one QR of the factor A, rho = (I (x) Q) core (I (x) Q)^dag
with Q an isometry; the kernel solves the partial transpose, both
reduction operators, rho2's spectrum and the realignment on it, n' =
d1^2 k wide instead of n = d1 d2. Such a stack forms its n x n matrices
only when they are first read.
"""

import numpy as np

# Tolerances shared across the package.
HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
ENTROPY_FLOOR = 1e-14   # eigenvalues at or below this contribute 0*log 0 = 0
# Complex entries in one slab (64 KB), the build's budget: a stack's
# products, checks and symmetrization are made a slab of whole matrices
# at a time, each slab within SLAB_ENTRIES entries or one matrix, so their
# temporaries are one slab's, not one stack's; a stack of fewer than two
# slabs is one slab. How many states a stack holds is the sampler's
# budget (sampling.CHUNK_ENTRIES), not this one.
SLAB_ENTRIES = 2 ** 12


def check_dims(d1, d2):
    """Reject a subsystem dimension below 2."""
    if d1 < 2 or d2 < 2:
        raise ValueError("both subsystem dimensions must be at least 2")


class DensityMatrix:
    """A ``(B, n, n)`` stack of B >= 1 Hermitian, unit-trace, PSD matrices
    on C^d1 (x) C^d2, n = d1*d2: every state is a stack, and one ``(n,
    n)`` matrix enters as a stack of one, B = 1.

    The input is validated against the Hermiticity/trace/positivity
    invariants and then symmetrized once, ``(M + M^dag)/2``, in a copy, so
    the caller's array keeps its bits; no operation downstream ever
    re-symmetrizes silently. Only ``DensityMatrix.stack``
    skips the positivity check, for states built from a factor, which
    are PSD by construction.

    ``gram`` is the spectral stand-in, a ``(B, m, m)`` stack, m <= n,
    whose spectra are the states' nonzero spectra: ``spectrum(rho.gram,
    n)`` is rho's spectrum. It is ``mat`` itself, except for a stack
    built from ``(B, n, k)`` factors with k < n, where it is A^dag A.

    ``core`` is the support stand-in of a stack built from ``(B, n, k)``
    factors with d1*k < d2: the same states on C^d1 (x) C^(d1*k), a
    DensityMatrix of d2' = d1*k equivalent to ``mat`` under a local
    isometry on subsystem 2 (see ``stack``). On every other stack it is
    None, never the stack itself. A stack with a core forms ``mat`` only
    when it is first read, from its factors, with the bits it would have
    had if built at once; the kernel never reads it there.
    """

    __slots__ = ("d1", "d2", "gram", "core", "_mat", "_factors")

    def __init__(self, mat, d1, d2):
        mats = np.array(mat, dtype=complex)
        self._mat = self.gram = _symmetrized(mats[None] if mats.ndim == 2 else mats, d1, d2)
        self.d1 = d1
        self.d2 = d2
        self.core = None
        lmin = np.linalg.eigvalsh(self._mat).min()
        if lmin < -PSD_ATOL:
            raise ValueError(f"matrix is not PSD (min eigenvalue {lmin:g})")

    @property
    def mat(self):
        """The ``(B, n, n)`` stack of the states."""
        if self._mat is None:
            self._mat = _products(self._factors, self.d1, self.d2)
            self._factors = None
        return self._mat

    @classmethod
    def stack(cls, factors, d1, d2):
        """The states ``A A^dag`` of a ``(B, n, k)`` stack of factors A
        (the sampler's), PSD by construction, as one stacked
        DensityMatrix. The products are formed, and every check of
        ``DensityMatrix`` but positivity made on them, in one ``(B, n,
        n)`` stack a slab at a time (``_products``). For k < n,
        ``gram`` is the ``(B, k, k)`` stack of ``A^dag A``, which has the
        nonzero eigenvalues of ``A A^dag`` (eigvalsh reads its lower
        triangle); for k = n it is ``mat``.

        For d1*k < d2, ``core`` is the stack of the factors A' of the same
        states on C^d1 (x) C^(d1*k). The ``(B, d2, d1*k)`` matrix M[mu,
        (i, l)] = A[(i, mu), l] is M = Q T, one stacked QR, Q a d2 x d1*k
        isometry; so A[(i, mu), l] = sum_s Q[mu, s] T[s, (i, l)], i.e. A =
        (I (x) Q) A' with A'[(i, s), l] = T[s, (i, l)]. Only T is
        computed. The core is built by this same method, so its checks
        run, and it has a ``gram`` but no core of its own. Those checks
        are the stack's: A' has A's Frobenius norm, so a factor that is
        not finite or whose product has no unit trace fails them, with
        the message its product would raise. ``mat`` is then formed only
        when first read."""
        a = np.asarray(factors, dtype=complex)
        rho = cls.__new__(cls)
        rho.d1, rho.d2 = d1, d2
        rho.core = None
        if a.ndim == 3 and a.shape[1] == d1 * d2 and 0 < d1 * a.shape[2] < d2:
            k = a.shape[2]
            m = a.reshape(-1, d1, d2, k).swapaxes(1, 2).reshape(-1, d2, d1 * k)
            t = np.linalg.qr(m, mode="r").reshape(-1, d1 * k, d1, k)
            rho.core = cls.stack(t.swapaxes(1, 2).reshape(-1, d1 * d1 * k, k), d1, d1 * k)
            rho._mat, rho._factors = None, a
        else:
            rho._mat = _products(a, d1, d2)
        rho.gram = a.conj().swapaxes(-2, -1) @ a if a.shape[-1] < a.shape[-2] else rho._mat
        return rho

    def __len__(self):
        return len(self.gram)

    def _blocks(self):
        """View each matrix of the stack with indices (i, mu, j, nu)."""
        return self.mat.reshape(-1, self.d1, self.d2, self.d1, self.d2)


def _slabs(n, *stacks):
    """Aligned views of stacks of the same length, ``(B, n, n)`` or their
    factors, as slabs of whole matrices: each slab holds as many matrices
    as fit in SLAB_ENTRIES complex entries of n x n, and at least one.
    A stack of fewer than two slabs is one slab."""
    per = SLAB_ENTRIES // (n * n) or 1
    if len(stacks[0]) < 2 * per:
        return (stacks,)
    return [tuple(x[lo:lo + per] for x in stacks) for lo in range(0, len(stacks[0]), per)]


def _products(a, d1, d2):
    """The checked and symmetrized ``A A^dag`` of a ``(B, n, k)`` stack of
    factors, written into one ``(B, n, n)`` stack a slab at a time, each
    matrix with the bits of its own product."""
    out = np.empty(a.shape[:-1] + a.shape[-2:-1], complex)
    _check_stack_shape(out, d1, d2)
    for f, o in _slabs(d1 * d2, a, out):
        np.matmul(f, f.conj().swapaxes(-2, -1), out=o)
    return _symmetrized(out, d1, d2)


def _check_stack_shape(mats, d1, d2):
    """Reject dimensions below 2 (check_dims), and an array that is not a
    ``(B, n, n)`` stack, n = d1*d2, of B >= 1 matrices."""
    check_dims(d1, d2)
    n = d1 * d2
    if mats.ndim != 3 or mats.shape[1:] != (n, n):
        raise ValueError(
            f"expected a (B, {n}, {n}) stack of {n}x{n} matrices, got shape {mats.shape}"
        )
    if not len(mats):
        raise ValueError("expected at least one matrix, got an empty stack")


def _symmetrized(mats, d1, d2):
    """``(M + M^dag)/2`` of each matrix of a ``(B, n, n)`` complex stack,
    formed in place in ``mats``, which is returned, after checking its
    shape (_check_stack_shape) and that every matrix is finite, Hermitian
    to within HERMITICITY_RTOL of its largest entry, and, once
    symmetrized, of unit trace to within TRACE_ATOL. The checks keep this
    order, and the first failed one raises a one-line ValueError (``mats``
    may then be partly symmetrized). The Hermiticity check and the
    symmetrization walk the stack a slab at a time (_slabs), so their
    temporaries are one slab's; each matrix's arithmetic is that of a
    stack of that matrix alone."""
    _check_stack_shape(mats, d1, d2)
    if not np.isfinite(mats).all():
        raise ValueError("matrix has non-finite entries")
    for (m,) in _slabs(d1 * d2, mats):
        adj = m.conj().swapaxes(-2, -1)
        scale = np.abs(m).max(axis=(-2, -1))
        if (np.abs(m - adj).max(axis=(-2, -1)) > HERMITICITY_RTOL * scale).any():
            raise ValueError("matrix is not Hermitian within tolerance")
        m += adj
        m *= 0.5
    if (np.abs(mats.trace(axis1=-2, axis2=-1).real - 1.0) > TRACE_ATOL).any():
        raise ValueError("matrix does not have unit trace")
    return mats


def partial_transpose(rho, subsystem=1):
    """Transpose the indices of one subsystem of each state of ``rho``.

    Returns a plain ndarray: the result is Hermitian with unit trace but
    in general not PSD.
    """
    t = rho._blocks()
    if subsystem == 1:
        t = t.swapaxes(-4, -2)
    elif subsystem == 2:
        t = t.swapaxes(-3, -1)
    else:
        raise ValueError("subsystem must be 1 or 2")
    return t.reshape(rho.mat.shape)


def partial_trace(rho, traced_subsystem=2):
    """Trace out one subsystem of each state of ``rho``; the marginals are
    a plain ``(B, d, d)`` ndarray, each exactly Hermitian with unit trace
    because ``rho`` was symmetrized when built."""
    t = rho._blocks()
    if traced_subsystem == 2:
        return t.trace(axis1=-3, axis2=-1)
    if traced_subsystem == 1:
        return t.trace(axis1=-4, axis2=-2)
    raise ValueError("traced_subsystem must be 1 or 2")


def realign(rho):
    """Reshuffle each state of ``rho`` into the d1^2 x d2^2 realignment
    matrix.

    Row index is the pair (i, j), column index the pair (mu, nu), so entry
    ((i,j),(mu,nu)) equals <i mu| rho |j nu>. The output has the same entry
    multiset as the input (equal Frobenius norms).
    """
    t = rho._blocks().swapaxes(-3, -2)
    return t.reshape(len(t), rho.d1 ** 2, rho.d2 ** 2)


def trace_norm(m):
    """Sum of singular values of ``m``, or of each matrix of a stack (the
    last two axes), taken from its tall orientation: a transpose has the
    same singular values, and LAPACK takes a tall matrix faster than its
    wide transpose."""
    if m.shape[-2] < m.shape[-1]:
        m = m.swapaxes(-2, -1)
    return np.add.reduce(np.linalg.svd(m, compute_uv=False), axis=-1)


def spectrum(mat, size=None):
    """Descending eigenvalues of a Hermitian matrix (an ndarray), or of
    each matrix of a stack (the last two axes), followed by exact zeros
    up to ``size`` eigenvalues when ``size`` is larger:
    ``spectrum(rho.gram, n)`` is the spectrum of each state of rho, its
    null space as exact zeros."""
    eigs = np.linalg.eigvalsh(mat)[..., ::-1]
    m = eigs.shape[-1]
    if size is None or size == m:
        return eigs
    padded = np.zeros(eigs.shape[:-1] + (size,))
    padded[..., :m] = eigs
    return padded


def von_neumann_entropy(eigenvalues):
    """Entropy -sum(p log p), in nats, of a density-matrix spectrum, or of
    each spectrum along the last axis.

    Eigenvalues at or below the entropy floor (tiny negatives from the
    eigensolver among them) are masked to 1, so their terms are exact
    zeros (1 log 1 = 0); the rest are clipped to 1. Each spectrum is then
    summed as one row, whatever the stack beside it.
    """
    p = np.asarray(eigenvalues, dtype=float)
    q = np.where(p > ENTROPY_FLOOR, np.minimum(p, 1.0), 1.0)
    neg = -np.add.reduce(q * np.log(q), axis=-1)
    # max(-sum, 0.0) as Python's max takes it, -0.0 and NaN included
    return np.where(0.0 > neg, 0.0, neg)[()]


def purity(rho):
    """Tr rho^2 of each state of ``rho``, the squared Frobenius norm of a
    Hermitian matrix, as a float64 array; each from its own vdot, so a
    state's value does not depend on the stack."""
    return np.array([np.vdot(mat, mat).real for mat in rho.mat])
