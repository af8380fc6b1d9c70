"""Dense complex linear algebra for bipartite density matrices.

Everything here is a pure function of its inputs. The fixed basis
convention is ``|i mu>`` with the subsystem-1 index major, i.e. the
composite row index of an entry ``<i mu| rho |j nu>`` is ``i*d2 + mu``.
A DensityMatrix is a stack of states; the helpers work on each of its
states, and on the last two axes of an array (the last one for spectra),
and give each matrix of a stack the same bits as a stack of that matrix
alone.
"""

import numpy as np

# Tolerances shared across the package.
HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
ENTROPY_FLOOR = 1e-14   # eigenvalues at or below this contribute 0*log 0 = 0


def check_dims(d1, d2):
    """Reject a subsystem dimension below 2."""
    if d1 < 2 or d2 < 2:
        raise ValueError("both subsystem dimensions must be at least 2")


class DensityMatrix:
    """A ``(B, n, n)`` stack of B >= 1 Hermitian, unit-trace, PSD matrices
    on C^d1 (x) C^d2, n = d1*d2: every state is a stack, and one ``(n,
    n)`` matrix enters as a stack of one, B = 1.

    The input is validated against the Hermiticity/trace/positivity
    invariants and then symmetrized once, ``(M + M^dag)/2``; no operation
    downstream ever re-symmetrizes silently. Only ``DensityMatrix.stack``
    skips the positivity check, for stacks that are PSD by construction.
    """

    __slots__ = ("d1", "d2", "mat")

    def __init__(self, mat, d1, d2):
        mats = np.asarray(mat, dtype=complex)
        self.mat = _symmetrized(mats[None] if mats.ndim == 2 else mats, d1, d2)
        self.d1 = d1
        self.d2 = d2
        lmin = np.linalg.eigvalsh(self.mat)[:, 0].min()
        if lmin < -PSD_ATOL:
            raise ValueError(f"matrix is not PSD (min eigenvalue {lmin:g})")

    @classmethod
    def stack(cls, mats, d1, d2):
        """The states of a ``(B, n, n)`` stack that is PSD by construction
        (the sampler's ``A A^dag``) as one stacked DensityMatrix. Every
        check of ``DensityMatrix`` but positivity is made on the whole
        stack in one pass."""
        rho = cls.__new__(cls)
        rho.d1, rho.d2 = d1, d2
        rho.mat = _symmetrized(np.asarray(mats, dtype=complex), d1, d2)
        return rho

    def __len__(self):
        return len(self.mat)

    def _blocks(self):
        """View each matrix of the stack with indices (i, mu, j, nu)."""
        return self.mat.reshape(-1, self.d1, self.d2, self.d1, self.d2)


def _symmetrized(mats, d1, d2):
    """``(M + M^dag)/2`` of each matrix of a ``(B, n, n)`` complex stack,
    after checking the dimensions (check_dims), that B >= 1, and that
    every matrix is finite, Hermitian to within HERMITICITY_RTOL of its
    largest entry, and, once symmetrized, of unit trace to within
    TRACE_ATOL. The first failed check raises."""
    check_dims(d1, d2)
    n = d1 * d2
    if mats.ndim != 3 or mats.shape[1:] != (n, n):
        raise ValueError(
            f"expected a (B, {n}, {n}) stack of {n}x{n} matrices, got shape {mats.shape}"
        )
    if not len(mats):
        raise ValueError("expected at least one matrix, got an empty stack")
    if not np.isfinite(mats).all():
        raise ValueError("matrix has non-finite entries")
    adj = mats.conj().swapaxes(-2, -1)
    scale = np.abs(mats).max(axis=(-2, -1))
    if (np.abs(mats - adj).max(axis=(-2, -1)) > HERMITICITY_RTOL * scale).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    sym = 0.5 * (mats + adj)
    if (np.abs(np.trace(sym, axis1=-2, axis2=-1).real - 1.0) > TRACE_ATOL).any():
        raise ValueError("matrix does not have unit trace")
    return sym


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
    last two axes)."""
    return np.add.reduce(np.linalg.svd(m, compute_uv=False), axis=-1)


def spectrum(mat):
    """Descending eigenvalues of a Hermitian matrix (an ndarray), or of
    each matrix of a stack (the last two axes)."""
    return np.linalg.eigvalsh(mat)[..., ::-1]


def von_neumann_entropy(eigenvalues):
    """Entropy -sum(p log p), in nats, of a density-matrix spectrum, or of
    each spectrum along the last axis.

    Eigenvalues at or below the entropy floor (tiny negatives from the
    eigensolver among them) contribute zero; the rest are clipped to 1.
    Each spectrum's kept terms are summed as one contiguous row, whatever
    their order: the spectra are grouped by their number L of kept terms
    and each group summed as one ``(m, L)`` array along its rows, so a
    spectrum's sum does not depend on the others beside it.
    """
    p = np.asarray(eigenvalues, dtype=float)
    rows = p.reshape(-1, p.shape[-1])
    keep = rows > ENTROPY_FLOOR
    counts = keep.sum(axis=1)
    sums = np.zeros(len(rows))
    for length in set(counts.tolist()) - {0}:
        group = counts == length
        q = rows[group][keep[group]].reshape(-1, length)  # a copy, worked in place
        np.minimum(q, 1.0, out=q)
        q *= np.log(q)
        sums[group] = np.add.reduce(q, axis=1)
    neg = -sums
    # max(-sum, 0.0) as Python's max takes it, -0.0 and NaN included
    return np.where(0.0 > neg, 0.0, neg).reshape(p.shape[:-1])[()]


def purity(rho):
    """Tr rho^2 of each state of ``rho``, the squared Frobenius norm of a
    Hermitian matrix, as a float64 array; each from its own vdot, so a
    state's value does not depend on the stack."""
    return np.array([np.vdot(mat, mat).real for mat in rho.mat])
