import math

import numpy as np
import pytest

from entdetect import (
    CRITERIA,
    DensityMatrix,
    Records,
    partial_transpose,
    realign,
    run_cell,
    sample_reduced_state,
    spectrum,
)
from entdetect.criteria import EPS
from entdetect.linalg import ENTROPY_FLOOR


def bell_state():
    """|Phi+><Phi+| in 2x2."""
    psi = np.zeros(4, complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(psi, psi.conj()), 2, 2)


def werner_state(p):
    """p |Phi+><Phi+| + (1-p) I/4."""
    rho = p * bell_state().mat + (1 - p) * np.eye(4) / 4
    return DensityMatrix(rho, 2, 2)


def maximally_mixed(d1, d2):
    n = d1 * d2
    return DensityMatrix(np.eye(n) / n, d1, d2)


def product_pure(d1, d2, seed=0):
    """|a><a| x |b><b| for Haar-random local kets."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(d1) + 1j * rng.standard_normal(d1)
    b = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    psi = np.kron(a, b)
    return DensityMatrix(np.outer(psi, psi.conj()), d1, d2)


def product_mixed(d1, d2, k1=2, k2=2, seed=0):
    """rho_A (x) rho_B from two independent Wishart draws."""
    rng = np.random.default_rng(seed)

    def wishart(d, k):
        a = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        m = a @ a.conj().T
        return m / m.trace().real

    return DensityMatrix(np.kron(wishart(d1, k1), wishart(d2, k2)), d1, d2)


def random_state(d1, d2, k, seed=0, trial=0):
    return sample_reduced_state(d1, d2, k, seed, trial)


def _stack_of(d1, d2, mat, gram, core=None):
    """A DensityMatrix of already-built arrays and their stand-ins."""
    rho = DensityMatrix.__new__(DensityMatrix)
    rho.d1, rho.d2, rho._mat, rho.gram, rho.core = d1, d2, mat, gram, core
    return rho


def states_of(rho):
    """Each state of the stack ``rho`` as its own stack of one, B = 1,
    with its own slices of the stack's stand-ins ``gram`` and ``core``."""
    cores = [None] * len(rho) if rho.core is None else states_of(rho.core)
    return [_stack_of(rho.d1, rho.d2, rho.mat[i:i + 1], rho.gram[i:i + 1], cores[i])
            for i in range(len(rho))]


def joined(stacks):
    """The states of stacks of one cell as one stack, in order, each with
    its own stand-ins."""
    stacks = list(stacks)
    cores = [s.core for s in stacks]
    return _stack_of(stacks[0].d1, stacks[0].d2, np.concatenate([s.mat for s in stacks]),
                     np.concatenate([s.gram for s in stacks]),
                     None if cores[0] is None else joined(cores))


def as_records(rows):
    """Records of ``(tn, witness)`` rows, in order."""
    rows = list(rows)
    return Records(np.array([tn for tn, _ in rows], dtype=float),
                   np.array([w for _, w in rows], dtype=float).reshape(-1, len(CRITERIA)))


def row_of(recs, i):
    """State ``i`` of Records, as Records of that one state."""
    return Records(recs.tn[i:i + 1], recs.witness[i:i + 1])


def reference_stream(d1, d2, k, master_seed, trial):
    """numpy's own Generator for one trial's stream, the contract the
    sampler's seeding must reproduce."""
    key = (d1, d2, k, trial, 0)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def reference_state(d1, d2, k, master_seed, trial):
    """Reference for the sampler: one trial drawn with SeedSequence and
    default_rng directly, its real parts then its imaginary parts, then
    rho = A A^dag of the normalized vector."""
    n = d1 * d2 * k
    rng = reference_stream(d1, d2, k, master_seed, trial)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = (v / np.linalg.norm(v)).reshape(d1 * d2, k)
    return DensityMatrix(a @ a.conj().T, d1, d2)


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def majorization_excess(global_eigs, marginal_eigs):
    """Largest excess of the global prefix sums over the marginal's, over
    the prefixes shorter than the marginal (the longer ones test 1 - 1)."""
    j = len(marginal_eigs) - 1
    return float((np.cumsum(global_eigs)[:j] - np.cumsum(marginal_eigs)[:j]).max())


def reference_entropy(eigs):
    """Reference for von_neumann_entropy of one spectrum: the mask, clip,
    log and sum written out, which the kernel's entropies must match bit
    for bit. Entries at or below the floor become 1, whose term 1 log 1
    is an exact zero, so the whole spectrum is summed as one row."""
    q = np.where(eigs > ENTROPY_FLOOR, np.minimum(eigs, 1.0), 1.0)
    return max(float(-(q * np.log(q)).sum()), 0.0)


def reference_marginal(rho, traced_subsystem):
    """Reference for partial_trace of a stack of one: the einsum over the
    (i, mu, j, nu) view, which partial_trace must match bit for bit."""
    t = rho.mat.reshape(rho.d1, rho.d2, rho.d1, rho.d2)
    return np.einsum("imjm->ij" if traced_subsystem == 2 else "imin->mn", t)


def verdict(recs, criterion, eps=EPS):
    """(detected, witness) of one criterion on the first state of Records,
    as a Python bool and float."""
    i = CRITERIA.index(criterion)
    return bool(recs.detected(eps)[0, i]), float(recs.witness[0, i])


def reference_record(rho):
    """Reference for evaluate_state on a stack of one: every witness
    computed on its own, with its own eigendecompositions and sums, and
    the trace norm from the side-2 partial transpose (evaluate_state uses
    side 1). rho's spectrum is its stand-in's, ``rho.gram``, padded with
    zeros to n; the other solves are made on its support stand-in
    ``rho.core`` when it has one, with rho2's spectrum padded with zeros
    to d2 and the PT and reduction minima capped at the 0 of the
    operators off the core; and the realignment's singular values are the
    tall orientation's, as in the kernel. It returns plain numbers, ``(tn,
    (pt, red, maj, ent, rl))``; test_criteria's boundary table pins the
    thresholds."""
    sub = rho if rho.core is None else rho.core
    cap = math.inf if rho.core is None else 0.0
    [mat] = sub.mat
    rho1, rho2 = reference_marginal(sub, 2), reference_marginal(sub, 1)
    [gram] = rho.gram
    eigs = np.concatenate((spectrum(gram), np.zeros(rho.d1 * rho.d2 - len(gram))))
    eigs2 = np.concatenate((spectrum(rho2), np.zeros(rho.d2 - len(rho2))))

    pt = min(float(np.linalg.eigvalsh(partial_transpose(sub, 1)[0])[0]), cap)

    op1 = np.kron(rho1, np.eye(sub.d2)) - mat
    op2 = np.kron(np.eye(sub.d1), rho2) - mat
    red = min(float(min(np.linalg.eigvalsh(op1)[0], np.linalg.eigvalsh(op2)[0])), cap)

    maj = max(
        majorization_excess(eigs, spectrum(rho1)),
        majorization_excess(eigs, eigs2),
    )

    s12 = reference_entropy(eigs)
    ent = min(s12 - reference_entropy(spectrum(rho1)), s12 - reference_entropy(eigs2))

    r = realign(sub)[0]
    rl = float(np.linalg.svd(r.T if r.shape[0] < r.shape[1] else r, compute_uv=False).sum()) - 1.0

    tn = float(np.abs(np.linalg.eigvalsh(partial_transpose(sub, 2)[0])).sum())
    return tn, (pt, red, maj, ent, rl)


@pytest.fixture
def bell():
    return bell_state()


@pytest.fixture(scope="session")
def records_2x5_k8():
    """One cell's records, evaluated once and read at several eps."""
    return run_cell(2, 5, 8, 2000, master_seed=42)
