"""The five entanglement detection criteria and logarithmic negativity.

evaluate_state is the one place a criterion's witness is computed. It
takes a stacked DensityMatrix and returns Records, the stack's numbers
as two columns in stack order: the unclipped trace norm of each state's
partial transpose and its five witnesses in CRITERIA order, from one
stacked pass whose numbers are each state's own bits. The thresholds are
applied only when the columns are read, at any eps, and Records.ln and
Records.detected are their one statement. Thresholds are strict with a
shared epsilon (default 1e-10): boundary states are classified as not
detected, since a one-sided separability test at its boundary carries no
certificate.

Witness conventions:

* pt           min eigenvalue of the partial transpose; detected < -eps
* reduction    min eigenvalue over both reduction operators; detected < -eps
* majorization largest excess of a descending partial sum of the global
               spectrum over a marginal's, over the prefixes shorter
               than that marginal; negative when every test passes;
               detected > eps
* entropy      min conditional entropy (natural log); detected < -eps
* realignment  trace norm of the realigned matrix minus 1; detected > eps

LN is log2 of the trace norm of the partial transpose, clipped to 0 when
that norm is within 2*eps of 1 (a PPT state).

The global spectrum, read by the majorization and entropy witnesses, is
``spectrum(rho.gram, n)``: the eigenvalues of the state's spectral
stand-in, A^dag A (k x k) for a rank-k state built from its factor A,
followed by exact zeros for the null space. The realignment trace norm
sums the singular values of the tall orientation of the realigned
matrix. The partial-transpose, reduction and marginal spectra and the
realignment are solved on the state's support stand-in ``rho.core``
when it has one (a rank-k state with d1*k < d2), else on the n x n
operators themselves. The core is rho on C^d1 (x) supp(rho2), n' = d1^2
k wide. Off that space rho^T1 and I (x) rho2 - rho vanish, so their
minima take min(., 0), and rho2's spectrum is padded with exact zeros to
d2; there rho1 (x) I - rho is rho1 (x) I, whose eigenvalues are at least
the core operator's least, <u w| rho1 (x) I - rho |u w> <= <u| rho1
|u>. The realigned core has rho's singular values: the isometry acts on
its columns as Q (x) conj(Q).
"""

import math

import numpy as np

from .linalg import (
    partial_trace,
    partial_transpose,
    realign,
    spectrum,
    trace_norm,
    von_neumann_entropy,
)

EPS = 1e-10

CRITERIA = ("pt", "reduction", "majorization", "entropy", "realignment")


# A criterion fires when sign * witness > eps, in CRITERIA order: the
# minimum-eigenvalue and conditional-entropy witnesses fire below -eps,
# the majorization and realignment excesses above +eps. Negation is exact,
# so -witness > eps is the same comparison as witness < -eps.
SIGNS = (-1, -1, +1, -1, +1)


class Records:
    """Evaluated states as columns, in stack or trial order: ``tn``, a
    float64 ``(n,)`` array of partial-transpose trace norms, and
    ``witness``, a float64 ``(n, 5)`` array of witnesses in CRITERIA
    order; ``==`` compares both columns exactly."""

    __slots__ = ("tn", "witness")

    def __init__(self, tn, witness):
        self.tn = tn
        self.witness = witness

    @classmethod
    def concat(cls, parts):
        """One batch of the states of ``parts``, in order."""
        return cls(np.concatenate([p.tn for p in parts]),
                   np.concatenate([p.witness for p in parts]))

    def __len__(self):
        return len(self.tn)

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return np.array_equal(self.tn, other.tn) and np.array_equal(self.witness, other.witness)

    def ln(self, eps=EPS):
        """Each state's log-negativity, as a float64 array: ``np.log2`` of
        its trace norm, or 0 within 2*eps of PPT."""
        return np.where(self.tn > 1.0 + 2.0 * eps, np.log2(self.tn), 0.0)

    def detected(self, eps=EPS):
        """Whether each criterion fires on each state at ``eps``, as an
        ``(n, 5)`` bool array in CRITERIA order."""
        return np.multiply(self.witness, SIGNS) > eps


def check_eps(eps):
    """Reject a detection threshold that is negative or not finite."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be a non-negative finite number, got {eps!r}")


def _majorization_witness(global_eigs, eigs1, eigs2):
    # The descending prefix sums of the global spectrum against each
    # marginal's, along the last axis. cumsum adds left to right, one
    # spectrum at a time. Only the prefixes shorter than the marginal are
    # compared: from its own length on, a marginal's sum is its whole
    # trace, 1, which no global sum exceeds, so those tests cannot fail
    # and their difference is only the roundoff of 1 - 1.
    shorter = [eigs.shape[-1] - 1 for eigs in (eigs1, eigs2)]
    total = np.cumsum(global_eigs[..., :max(shorter)], axis=-1)
    return np.maximum(*(
        (total[..., :j] - np.cumsum(eigs[..., :j], axis=-1)).max(axis=-1)
        for eigs, j in zip((eigs1, eigs2), shorter)
    ))


def _least_eigenvalues(product, mat):
    """The least eigenvalue of each operator ``product - mat``, ``product``
    an ``(B, d1, d2, d1, d2)`` stack, formed in ``product``'s buffer."""
    op = product.reshape(mat.shape)
    op -= mat
    return np.linalg.eigvalsh(op)[:, 0]


def evaluate_state(rho):
    """The five witnesses and the partial-transpose trace norm of each
    state of a stacked DensityMatrix, as Records in stack order.

    The work is one pass over the whole stack: six stacked eigvalsh and
    one stacked svd, whatever its length. The expensive
    eigendecompositions are shared between the criteria; the
    partial-transpose spectrum is independent of which side is
    transposed, so the PT witness and the trace norm come from a single
    solve. rho's own spectrum is solved on its ``gram`` stand-in (k x k
    for a rank-k state from the sampler) and padded with exact zeros to
    n, the realignment's singular values on its tall orientation, and
    everything else on its ``core`` when it has one.
    """
    n = rho.d1 * rho.d2
    sub = rho if rho.core is None else rho.core
    pt_eigs = np.linalg.eigvalsh(partial_transpose(sub, 1))

    rho1 = partial_trace(sub, 2)
    rho2 = partial_trace(sub, 1)
    eigs12 = spectrum(rho.gram, n)
    eigs1 = spectrum(rho1)
    eigs2 = spectrum(rho2, rho.d2)

    # The reduction operators rho1 (x) I - rho and I (x) rho2 - rho, each
    # in one buffer, solved as soon as it is built so that one is held at
    # a time: the Kronecker product is formed by broadcasting on the (i,
    # mu, j, nu) index view against an identity, the same products as
    # np.kron without its overhead, and rho is subtracted in place. Each
    # entry is np.kron's product less rho's, signed zeros included: a
    # core's structural zeros reach LAPACK, whose bits depend on them.
    red_min = np.minimum(
        _least_eigenvalues(rho1[:, :, None, :, None] * np.eye(sub.d2)[:, None, :], sub.mat),
        _least_eigenvalues(np.eye(sub.d1)[:, None, :, None] * rho2[:, None, :, None, :], sub.mat),
    )
    pt_min = pt_eigs[:, 0]
    if sub is not rho:
        # the zero eigenvalues of rho^T1 and I (x) rho2 - rho off the core
        pt_min = np.minimum(pt_min, 0.0)
        red_min = np.minimum(red_min, 0.0)

    maj = _majorization_witness(eigs12, eigs1, eigs2)

    s12 = von_neumann_entropy(eigs12)
    ent = np.minimum(s12 - von_neumann_entropy(eigs1), s12 - von_neumann_entropy(eigs2))

    rl = trace_norm(realign(sub)) - 1.0

    tn = np.add.reduce(np.abs(pt_eigs), axis=-1)
    return Records(tn, np.stack((pt_min, red_min, maj, ent, rl), axis=-1))
