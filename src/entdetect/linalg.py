"""Dense complex linear algebra for bipartite density matrices.

Everything here is a pure function of its inputs. The fixed basis
convention is ``|i mu>`` with the subsystem-1 index major, i.e. the
composite row index of an entry ``<i mu| rho |j nu>`` is ``i*d2 + mu``.
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
    """A Hermitian, unit-trace, PSD matrix on C^d1 (x) C^d2.

    The input is validated against the Hermiticity/trace/positivity
    invariants and then symmetrized once, ``(M + M^dag)/2``; no operation
    downstream ever re-symmetrizes silently. Only ``DensityMatrix.stack``
    skips the positivity check, for stacks that are PSD by construction.
    """

    __slots__ = ("d1", "d2", "mat")

    def __init__(self, mat, d1, d2):
        [self.mat] = _symmetrized(np.asarray(mat, dtype=complex)[None], d1, d2)
        self.d1 = d1
        self.d2 = d2
        lmin = np.linalg.eigvalsh(self.mat)[0]
        if lmin < -PSD_ATOL:
            raise ValueError(f"matrix is not PSD (min eigenvalue {lmin:g})")

    @classmethod
    def stack(cls, mats, d1, d2):
        """One state per matrix of a ``(B, n, n)`` stack that is PSD by
        construction (the sampler's ``A A^dag``), each viewing its row of
        one symmetrized stack. Every check of ``DensityMatrix`` but
        positivity is made on the whole stack in one pass."""
        states = []
        for mat in _symmetrized(np.asarray(mats, dtype=complex), d1, d2):
            rho = cls.__new__(cls)
            rho.d1, rho.d2, rho.mat = d1, d2, mat
            states.append(rho)
        return states

    def _blocks(self):
        """View the matrix with indices (i, mu, j, nu)."""
        return self.mat.reshape(self.d1, self.d2, self.d1, self.d2)


def _symmetrized(mats, d1, d2):
    """``(M + M^dag)/2`` of each matrix of a ``(B, n, n)`` complex stack,
    after checking the dimensions (check_dims) and that every matrix is
    finite, Hermitian to within HERMITICITY_RTOL of its largest entry,
    and, once symmetrized, of unit trace to within TRACE_ATOL. The first
    failed check raises."""
    check_dims(d1, d2)
    n = d1 * d2
    if mats.shape[1:] != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {mats.shape[1:]}")
    if not np.isfinite(mats).all():
        raise ValueError("matrix has non-finite entries")
    adj = mats.conj().transpose(0, 2, 1)
    scale = np.abs(mats).max(axis=(1, 2))
    if (np.abs(mats - adj).max(axis=(1, 2)) > HERMITICITY_RTOL * scale).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    sym = 0.5 * (mats + adj)
    if (np.abs(np.trace(sym, axis1=1, axis2=2).real - 1.0) > TRACE_ATOL).any():
        raise ValueError("matrix does not have unit trace")
    return sym


def partial_transpose(rho, subsystem=1):
    """Transpose the indices of one subsystem of ``rho``.

    Returns a plain ndarray: the result is Hermitian with unit trace but
    in general not PSD.
    """
    t = rho._blocks()
    if subsystem == 1:
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == 2:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError("subsystem must be 1 or 2")
    return np.ascontiguousarray(t.reshape(rho.mat.shape))


def partial_trace(rho, traced_subsystem=2):
    """Trace out one subsystem; the marginal is a plain ndarray, exactly
    Hermitian with unit trace because ``rho`` was symmetrized when built."""
    t = rho._blocks()
    if traced_subsystem == 2:
        return t.trace(axis1=1, axis2=3)
    if traced_subsystem == 1:
        return t.trace(axis1=0, axis2=2)
    raise ValueError("traced_subsystem must be 1 or 2")


def realign(rho):
    """Reshuffle ``rho`` into the d1^2 x d2^2 realignment matrix.

    Row index is the pair (i, j), column index the pair (mu, nu), so entry
    ((i,j),(mu,nu)) equals <i mu| rho |j nu>. The output has the same entry
    multiset as the input (equal Frobenius norms).
    """
    t = rho._blocks()
    return np.ascontiguousarray(
        t.transpose(0, 2, 1, 3).reshape(rho.d1 ** 2, rho.d2 ** 2)
    )


def trace_norm(m):
    """Sum of singular values of ``m``."""
    return float(np.add.reduce(np.linalg.svd(m, compute_uv=False)))


def spectrum(mat):
    """Descending eigenvalues of a Hermitian matrix (an ndarray)."""
    return np.linalg.eigvalsh(mat)[::-1]


def von_neumann_entropy(eigenvalues):
    """Entropy -sum(p log p), in nats, of a density-matrix spectrum.

    Eigenvalues at or below the entropy floor (tiny negatives from the
    eigensolver among them) contribute zero; the rest are clipped to 1.
    """
    p = np.asarray(eigenvalues, dtype=float)
    p = p[p > ENTROPY_FLOOR]  # a copy, so it can be worked in place
    np.minimum(p, 1.0, out=p)
    p *= np.log(p)
    return max(-float(np.add.reduce(p)), 0.0)


def purity(rho):
    """Tr rho^2; equals the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho.mat, rho.mat).real)
