import math

import numpy as np
import pytest

from entdetect import (
    DensityMatrix,
    SampleSpec,
    StateRecord,
    Verdict,
    partial_trace,
    partial_transpose,
    realign,
    sample_reduced_state,
    spectrum,
    trace_norm,
    von_neumann_entropy,
)


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


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _majorization_excess(global_eigs, marginal_eigs):
    padded = np.zeros(len(global_eigs))
    padded[: len(marginal_eigs)] = marginal_eigs
    return float((np.cumsum(global_eigs) - np.cumsum(padded)).max())


def reference_verdicts(rho, eps):
    """Reference for evaluate_state: every criterion computed on its own,
    with its own eigendecompositions, and LN from the side-2 partial
    transpose (evaluate_state uses side 1)."""
    rho1, rho2 = partial_trace(rho, 2), partial_trace(rho, 1)

    pt = float(np.linalg.eigvalsh(partial_transpose(rho, 1))[0])

    op1 = np.kron(rho1.mat, np.eye(rho.d2)) - rho.mat
    op2 = np.kron(np.eye(rho.d1), rho2.mat) - rho.mat
    red = float(min(np.linalg.eigvalsh(op1)[0], np.linalg.eigvalsh(op2)[0]))

    eigs = spectrum(rho)
    maj = max(
        _majorization_excess(eigs, spectrum(rho1)),
        _majorization_excess(eigs, spectrum(rho2)),
    )

    s12 = von_neumann_entropy(spectrum(rho))
    ent = min(
        s12 - von_neumann_entropy(spectrum(rho1)),
        s12 - von_neumann_entropy(spectrum(rho2)),
    )

    rl = trace_norm(realign(rho)) - 1.0

    tn = float(np.abs(np.linalg.eigvalsh(partial_transpose(rho, 2))).sum())
    ln = 0.0 if tn <= 1.0 + 2.0 * eps else math.log2(tn)

    verdicts = {
        "pt": Verdict("pt", pt < -eps, pt),
        "reduction": Verdict("reduction", red < -eps, red),
        "majorization": Verdict("majorization", maj > eps, maj),
        "entropy": Verdict("entropy", ent < -eps, ent),
        "realignment": Verdict("realignment", rl > eps, rl),
    }
    return StateRecord(ln=ln, verdicts=verdicts)


@pytest.fixture
def bell():
    return bell_state()
