"""Closed-form versus constructed sector spectrum, for the tests.

The `spectral` sine modes diagonalize a variant of the constructed sector
matrix (the -J boundary term at the receiver end only), so their
eigenpair residual against that matrix is positive and their lowest gap
differs from the exact one.
"""

import numpy as np

from spinrelay.sector_dynamics import (
    ChainSpec,
    PropagatorMode,
    build_one_particle_hamiltonian,
    sector_basis,
)


def eigenpair_residual(spec: ChainSpec):
    """Max 2-norm residual of the closed-form eigenpairs against the
    constructed sector matrix, after the least-squares global shift
    s* = mean_p(v_p^T M v_p - lambda_p) that absorbs the dropped constant."""
    m = build_one_particle_hamiltonian(spec)
    basis = sector_basis(spec, PropagatorMode.SPECTRAL_FORMULA)
    mv = m @ basis.vectors
    rayleigh = np.einsum("kp,kp->p", basis.vectors, mv)
    shift = float(np.mean(rayleigh - basis.freqs))
    res = mv - basis.vectors * (basis.freqs + shift)
    return float(np.max(np.linalg.norm(res, axis=0)))


def gap_report(spec: ChainSpec):
    """Lowest spectral gap computed both ways.

    The closed-form gap is 2J(cos(pi/(2N+1)) - cos(3pi/(2N+1))); the exact
    gap comes from diagonalizing the constructed matrix. For N=2 these are
    sqrt(5) J versus exactly 2 J.
    """
    n, j = spec.n_sites, spec.j
    q = np.pi / (2 * n + 1)
    formula_gap = 2.0 * j * (np.cos(q) - np.cos(3 * q))
    w = np.linalg.eigvalsh(build_one_particle_hamiltonian(spec))
    exact_gap = float(w[1] - w[0])
    return {
        "formula_gap": float(formula_gap),
        "exact_gap": exact_gap,
        "difference": float(formula_gap - exact_gap),
        "residual": eigenpair_residual(spec),
    }
