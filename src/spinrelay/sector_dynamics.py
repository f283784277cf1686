"""One-excitation sector of the uniform chain: Hamiltonian and propagators.

A single excitation hops on N sites under a tridiagonal Hamiltonian; the
N x N propagator F(t) comes in two modes. Exact mode diagonalizes the
constructed matrix and is the dynamical ground truth. Spectral mode uses
the closed-form sine family

    v_p(k) = sqrt(4/(2N+1)) sin((2p+1) k pi / (2N+1)),
    lambda_p = -2 J cos((2p+1) pi / (2N+1)),

which is exactly orthonormal on the site grid but diagonalizes a variant
of the exact matrix with the -J boundary term at the receiver end only
(none at the sender); the two modes give measurably different dynamics
(see eigenpair_residual and gap_report).
The magnetic field never enters F(t): it contributes the level-dependent
global phase exp(-i mu B t) handled by the protocol layer.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


def require_int(name, value):
    """Reject anything but an integer: these values size arrays and key
    caches."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"need an integer {name}, got {value!r}")


def require_finite(name, value):
    """Reject NaN and infinities: a NaN never compares equal, so as a cache
    key it would miss every time."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"need a finite {name}, got {value!r}")


@dataclass(frozen=True)
class ChainSpec:
    """Static chain parameters shared by every engine."""

    n_sites: int
    d: int = 3
    j: float = 1.0
    b_field: float = 0.0

    def __post_init__(self):
        require_int("n_sites", self.n_sites)
        require_int("d", self.d)
        require_finite("j", self.j)
        require_finite("b_field", self.b_field)
        if self.n_sites < 2:
            raise ValueError(f"need n_sites >= 2, got {self.n_sites}")
        if self.d < 3:
            raise ValueError(f"need d >= 3, got {self.d}")
        if self.j <= 0:
            raise ValueError(f"need ferromagnetic j > 0, got {self.j}")
        if self.b_field < 0:
            raise ValueError(f"need b_field >= 0, got {self.b_field}")


class PropagatorMode(Enum):
    SPECTRAL_FORMULA = "spectral"
    EXACT_DIAGONALIZATION = "exact"


def as_mode(mode):
    if isinstance(mode, PropagatorMode):
        return mode
    return PropagatorMode(mode)


def build_one_particle_hamiltonian(spec: ChainSpec):
    """B-independent sector matrix from applying each bond term to
    one-excitation states; the mu*B on-site offset is a global phase in
    this sector and is tracked separately.

    A bond not touching the excited site contributes -J to the diagonal;
    a bond touching it hops the excitation with amplitude -J. The constant
    interior diagonal -J(N-3) is dropped, leaving -J at the two boundary
    sites only.
    """
    n, j = spec.n_sites, spec.j
    m = np.zeros((n, n))
    for bond in range(n - 1):
        m[bond, bond + 1] -= j
        m[bond + 1, bond] -= j
        for k in range(n):
            if k != bond and k != bond + 1:
                m[k, k] -= j
    m -= np.eye(n) * (-j * (n - 3))
    return m


@dataclass(frozen=True)
class SectorBasis:
    """Cached mode decomposition: F(t) = V diag(exp(-i freqs t)) V^T."""

    mode: PropagatorMode
    vectors: np.ndarray  # N x N, columns are modes, real
    freqs: np.ndarray  # N

    def evolve(self, c, t):
        phase = np.exp(-1j * self.freqs * t)
        return self.vectors @ (phase * (self.vectors.T @ c))

    def f_matrix(self, t):
        if t < 0:
            raise ValueError(f"need t >= 0, got {t}")
        phase = np.exp(-1j * self.freqs * t)
        return (self.vectors * phase) @ self.vectors.T


@lru_cache(maxsize=128)
def _basis(n_sites, j, mode_value):
    mode = PropagatorMode(mode_value)
    if mode is PropagatorMode.SPECTRAL_FORMULA:
        p = np.arange(n_sites)
        q = (2 * p + 1) * np.pi / (2 * n_sites + 1)
        k = np.arange(1, n_sites + 1)[:, None]
        vectors = np.sqrt(4.0 / (2 * n_sites + 1)) * np.sin(q[None, :] * k)
        freqs = -2.0 * j * np.cos(q)
    else:
        spec = ChainSpec(n_sites=n_sites, j=j)
        m = build_one_particle_hamiltonian(spec)
        freqs, vectors = np.linalg.eigh(m)
    vectors.setflags(write=False)
    freqs.setflags(write=False)
    return SectorBasis(mode=mode, vectors=vectors, freqs=freqs)


def sector_basis(spec: ChainSpec, mode):
    """Mode decomposition for a chain, cached per (N, J, mode)."""
    return _basis(spec.n_sites, spec.j, as_mode(mode).value)


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
