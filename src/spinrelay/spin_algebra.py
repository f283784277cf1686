"""d-level spin operators, the two-site swap, and its polynomial decomposition.

The swap of two neighboring d-level sites can be written as a degree d-1
polynomial in the scalar product S.S of standard spin-s operators with
s = (d-1)/2. The coefficients are solved here as a flat least-squares
problem whose residual doubles as a self test.
"""

from dataclasses import dataclass

import numpy as np

from .sector_dynamics import ChainSpec

# dense-oracle size guard, shared with full_oracle: 3^12 states, one
# complex state vector 8.5 MB
SIZE_GUARD = 3 ** 12


@dataclass(frozen=True)
class SpinOperatorSet:
    """Standard spin-s matrices for a d-level site, s = (d-1)/2.

    Basis is the site-label basis |0>, ..., |d-1> mapped onto m = s, s-1,
    ..., -s in that order (Condon-Shortley phases), so sz = diag(s, s-1,
    ..., -s).
    """

    d: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


@dataclass(frozen=True)
class SwapDecomposition:
    """Coefficients b with swap = sum_p b[p] * (S.S)**p and the max-norm
    reconstruction error."""

    d: int
    b: np.ndarray
    residual: float


def build_spin_operators(d):
    """Standard spin-s operator triple for a d-level site."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    s = (d - 1) / 2.0
    m = s - np.arange(d)  # m values down the diagonal
    sz = np.diag(m)
    # raising operator in the label basis maps |mu> -> |mu-1>
    amp = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((d, d))
    sp[np.arange(d - 1), np.arange(1, d)] = amp
    sm = sp.T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2j
    return SpinOperatorSet(d=d, sx=sx, sy=sy, sz=sz.astype(complex))


def spin_scalar_product(ops):
    """S.S = sx(x)sx + sy(x)sy + sz(x)sz on the two-site product space."""
    return (
        np.kron(ops.sx, ops.sx)
        + np.kron(ops.sy, ops.sy)
        + np.kron(ops.sz, ops.sz)
    )


def build_swap_operator(d):
    """Permutation matrix exchanging two d-level sites: P|mu,nu> = |nu,mu>."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    p = np.zeros((d * d, d * d))
    for mu in range(d):
        for nu in range(d):
            p[nu * d + mu, mu * d + nu] = 1.0
    return p


def solve_swap_coefficients(d):
    """Solve swap = sum_{p=0}^{d-1} b_p (S.S)^p for the d real coefficients.

    Uses all d^4 flattened matrix elements as an overdetermined least-squares
    system; only d equations are independent, which is confirmed by a rank
    check on the design matrix.
    """
    ops = build_spin_operators(d)
    ss = spin_scalar_product(ops)
    target = build_swap_operator(d).ravel()
    powers = [np.eye(d * d, dtype=complex)]
    for _ in range(d - 1):
        powers.append(powers[-1] @ ss)
    design = np.column_stack([m.ravel() for m in powers])
    if np.linalg.matrix_rank(design) != d:
        raise ArithmeticError(f"degenerate decomposition system for d={d}")
    b, *_ = np.linalg.lstsq(design, target.astype(complex), rcond=None)
    if np.max(np.abs(b.imag)) > 1e-10:
        raise ArithmeticError(f"non-real swap coefficients for d={d}: {b}")
    b = b.real
    residual = float(np.max(np.abs(design.real @ b - target)))
    if residual > 1e-10:
        raise ArithmeticError(
            f"swap reconstruction residual {residual:.3e} for d={d}"
        )
    return SwapDecomposition(d=d, b=b, residual=residual)


def swap_from_decomposition(dec):
    """Reassemble the swap matrix from its decomposition (cross-check path)."""
    ops = build_spin_operators(dec.d)
    ss = spin_scalar_product(ops)
    out = np.zeros_like(ss)
    acc = np.eye(dec.d ** 2, dtype=complex)
    for coeff in dec.b:
        out = out + coeff * acc
        acc = acc @ ss
    return out


def conserved_charge(m, spec: ChainSpec):
    """Diagonal of the charge Q^(m) = sum_k (S^z_k)^m on the full chain.

    Site labels play the role of S^z eigenvalues here (eigenvalue mu on
    |mu>, mu = 0..d-1), so the operator is diagonal in the product basis
    and is returned as its diagonal vector of length d^N, lexicographic
    with site 1 most significant.
    """
    if not 1 <= m <= spec.d - 1:
        raise ValueError(f"charge order m={m} outside 1..{spec.d - 1}")
    dim = spec.d ** spec.n_sites
    if dim > SIZE_GUARD:
        raise ValueError(f"dimension {dim} exceeds size guard {SIZE_GUARD}")
    idx = np.arange(dim)
    q = np.zeros(dim)
    for k in range(spec.n_sites):
        digit = (idx // spec.d ** (spec.n_sites - 1 - k)) % spec.d
        q += digit.astype(float) ** m
    return q
