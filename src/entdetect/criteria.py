"""The five entanglement detection criteria and logarithmic negativity.

evaluate_state is the one place a criterion's witness is computed. On a
stacked DensityMatrix it returns Records, the batch's numbers as two
columns in stack order: the unclipped trace norm of each state's partial
transpose and its five witnesses in CRITERIA order, from one stacked pass
whose numbers are each state's own bits. On one state it returns that
state's StateRecord, the same numbers as Python floats; Records index
and iterate as StateRecords. The thresholds are applied only when
numbers are read, at any eps, and _ln and _detected are their one
statement, for a StateRecord and for a column alike. Thresholds are
strict with a shared epsilon (default 1e-10): boundary states are
classified as not detected, since a one-sided separability test at its
boundary carries no certificate.

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
"""

import functools
import math
from typing import NamedTuple

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


def _ln(tn, eps):
    """LN of one trace norm: log2, or 0 within 2*eps of PPT."""
    return math.log2(tn) if tn > 1.0 + 2.0 * eps else 0.0


def _detected(witness, eps):
    """Whether each criterion fires at ``eps``: a bool array along the
    last axis of ``witness``, in CRITERIA order."""
    return np.multiply(witness, SIGNS) > eps


class StateRecord(NamedTuple):
    """One evaluated state: ``tn``, the trace norm of its partial
    transpose, and ``witness``, the five witnesses in CRITERIA order."""

    tn: float
    witness: tuple

    def ln(self, eps=EPS):
        """Log-negativity, 0 for a state within 2*eps of PPT."""
        return _ln(self.tn, eps)

    def detected(self, eps=EPS):
        """Whether each criterion fires at ``eps``, in CRITERIA order."""
        return tuple(_detected(self.witness, eps).tolist())


class Records:
    """Evaluated states as columns, in stack or trial order: ``tn``, a
    float64 ``(n,)`` array of partial-transpose trace norms, and
    ``witness``, a float64 ``(n, 5)`` array of witnesses in CRITERIA
    order. Indexing and iteration give each state's StateRecord, of
    Python floats; ``==`` compares both columns exactly."""

    __slots__ = ("tn", "witness")

    def __init__(self, tn, witness):
        self.tn = tn
        self.witness = witness

    @classmethod
    def from_records(cls, records):
        """The columns of an iterable of StateRecords, in order."""
        records = list(records)
        return cls(np.array([r.tn for r in records], dtype=float),
                   np.array([r.witness for r in records], dtype=float))

    @classmethod
    def concat(cls, parts):
        """One batch of the states of ``parts``, in order."""
        return cls(np.concatenate([p.tn for p in parts]),
                   np.concatenate([p.witness for p in parts]))

    def __len__(self):
        return len(self.tn)

    def __getitem__(self, i):
        return StateRecord(self.tn[i].item(), tuple(self.witness[i].tolist()))

    def __iter__(self):
        return map(StateRecord, self.tn.tolist(), map(tuple, self.witness.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return np.array_equal(self.tn, other.tn) and np.array_equal(self.witness, other.witness)

    def ln(self, eps=EPS):
        """Each state's StateRecord.ln, as a float64 array."""
        return np.array([_ln(tn, eps) for tn in self.tn.tolist()])

    def detected(self, eps=EPS):
        """Each state's StateRecord.detected, as an ``(n, 5)`` bool array."""
        return _detected(self.witness, eps)


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


@functools.cache
def _identity(d):
    """The d x d complex identity, built once per dimension and read-only,
    so every state can share it."""
    eye = np.eye(d, dtype=complex)
    eye.flags.writeable = False
    return eye


def evaluate_state(rho):
    """The five witnesses and the partial-transpose trace norm of a state,
    or of each state of a stacked DensityMatrix.

    Returns Records, in stack order, for a stack, and one StateRecord for
    a single state. Either way the work is one pass over the whole stack:
    six stacked eigvalsh and one stacked svd, whatever its length. The
    expensive eigendecompositions are shared between the criteria; the
    partial-transpose spectrum is independent of which side is
    transposed, so the PT witness and the trace norm come from a single
    solve.
    """
    pt_eigs = np.linalg.eigvalsh(partial_transpose(rho, 1))

    rho1 = partial_trace(rho, 2)
    rho2 = partial_trace(rho, 1)
    eigs12 = spectrum(rho.mat)
    eigs1 = spectrum(rho1)
    eigs2 = spectrum(rho2)

    # The reduction operators rho1 (x) I - rho and I (x) rho2 - rho, with
    # each Kronecker product formed by broadcasting on the (i, mu, j, nu)
    # index view against a shared identity: the same products as np.kron,
    # without its overhead.
    shape = rho.mat.shape
    kron1 = rho1[..., :, None, :, None] * _identity(rho.d2)[:, None, :]
    kron2 = _identity(rho.d1)[:, None, :, None] * rho2[..., None, :, None, :]
    op1 = kron1.reshape(shape) - rho.mat
    op2 = kron2.reshape(shape) - rho.mat
    red_min = np.minimum(np.linalg.eigvalsh(op1)[..., 0], np.linalg.eigvalsh(op2)[..., 0])

    maj = _majorization_witness(eigs12, eigs1, eigs2)

    s12 = von_neumann_entropy(eigs12)
    ent = np.minimum(s12 - von_neumann_entropy(eigs1), s12 - von_neumann_entropy(eigs2))

    rl = trace_norm(realign(rho)) - 1.0

    tn = np.add.reduce(np.abs(pt_eigs), axis=-1)
    witness = np.stack((pt_eigs[..., 0], red_min, maj, ent, rl), axis=-1)
    records = Records(np.reshape(tn, -1), witness.reshape(-1, len(CRITERIA)))
    return records if rho.mat.ndim == 3 else records[0]
