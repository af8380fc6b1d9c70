import numpy as np
import pytest

from entdetect import (
    CRITERIA,
    DensityMatrix,
    SampleSpec,
    StateRecord,
    partial_trace,
    partial_transpose,
    realign,
    run_cell,
    sample_reduced_state,
    spectrum,
    trace_norm,
    von_neumann_entropy,
)
from entdetect.criteria import EPS


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
    return sample_reduced_state(SampleSpec(d1, d2, k, seed, trial))


def reference_stream(spec, redraw=0):
    """numpy's own Generator for one trial's stream (or its redraw
    sub-stream), the contract the sampler's seeding must reproduce."""
    key = (spec.d1, spec.d2, spec.k, spec.trial_index, redraw)
    return np.random.default_rng(np.random.SeedSequence(spec.master_seed, spawn_key=key))


def reference_state(spec):
    """Reference for the sampler: one trial drawn with SeedSequence and
    default_rng directly, one re-draw from the redraw sub-stream after a
    zero draw, then rho = A A^dag of the normalized vector."""
    n = spec.d1 * spec.d2 * spec.k
    for redraw in (0, 1):
        rng = reference_stream(spec, redraw)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm > 0:
            a = (v / norm).reshape(spec.d1 * spec.d2, spec.k)
            return DensityMatrix(a @ a.conj().T, spec.d1, spec.d2, check=False)
    raise RuntimeError("drew a zero vector twice; RNG is broken")


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _majorization_excess(global_eigs, marginal_eigs):
    padded = np.zeros(len(global_eigs))
    padded[: len(marginal_eigs)] = marginal_eigs
    return float((np.cumsum(global_eigs) - np.cumsum(padded)).max())


def verdict(rec, criterion, eps=EPS):
    """(detected, witness) of one criterion of a StateRecord."""
    i = CRITERIA.index(criterion)
    return rec.detected(eps)[i], rec.witness[i]


def reference_record(rho):
    """Reference for evaluate_state: every witness computed on its own,
    with its own eigendecompositions, and the trace norm from the side-2
    partial transpose (evaluate_state uses side 1). It returns raw
    numbers; test_criteria's boundary table pins the thresholds."""
    rho1, rho2 = partial_trace(rho, 2), partial_trace(rho, 1)

    pt = float(np.linalg.eigvalsh(partial_transpose(rho, 1))[0])

    op1 = np.kron(rho1, np.eye(rho.d2)) - rho.mat
    op2 = np.kron(np.eye(rho.d1), rho2) - rho.mat
    red = float(min(np.linalg.eigvalsh(op1)[0], np.linalg.eigvalsh(op2)[0]))

    eigs = spectrum(rho.mat)
    maj = max(
        _majorization_excess(eigs, spectrum(rho1)),
        _majorization_excess(eigs, spectrum(rho2)),
    )

    s12 = von_neumann_entropy(spectrum(rho.mat))
    ent = min(
        s12 - von_neumann_entropy(spectrum(rho1)),
        s12 - von_neumann_entropy(spectrum(rho2)),
    )

    rl = trace_norm(realign(rho)) - 1.0

    tn = float(np.abs(np.linalg.eigvalsh(partial_transpose(rho, 2))).sum())
    return StateRecord(tn, (pt, red, maj, ent, rl))


@pytest.fixture
def bell():
    return bell_state()


@pytest.fixture(scope="session")
def records_2x5_k8():
    """One cell's records, evaluated once and read at several eps."""
    return run_cell(2, 5, 8, 2000, master_seed=42)
