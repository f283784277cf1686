import numpy as np
import pytest

from spinrelay.sector_dynamics import ChainSpec
from spinrelay.spin_algebra import (
    build_spin_operators,
    build_swap_operator,
    conserved_charge,
    effective_couplings,
    solve_swap_coefficients,
    spin_scalar_product,
    swap_from_decomposition,
)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_spin_operators_are_hermitian(d):
    ops = build_spin_operators(d)
    for m in (ops.sx, ops.sy, ops.sz):
        assert np.max(np.abs(m - m.conj().T)) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_spin_commutators(d):
    ops = build_spin_operators(d)
    pairs = [(ops.sx, ops.sy, ops.sz), (ops.sy, ops.sz, ops.sx),
             (ops.sz, ops.sx, ops.sy)]
    for a, b, c in pairs:
        comm = a @ b - b @ a
        assert np.max(np.abs(comm - 1j * c)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_casimir(d):
    ops = build_spin_operators(d)
    s = (d - 1) / 2.0
    total = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.max(np.abs(total - s * (s + 1) * np.eye(d))) < 1e-12


def test_sz_eigenvalues():
    assert np.allclose(np.diag(build_spin_operators(2).sz), [0.5, -0.5])
    assert np.allclose(np.diag(build_spin_operators(3).sz), [1.0, 0.0, -1.0])


def test_d4_casimir_value():
    ops = build_spin_operators(4)
    total = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.max(np.abs(total - 3.75 * np.eye(4))) < 1e-12


@pytest.mark.parametrize("builder", [build_spin_operators, build_swap_operator])
def test_small_d_rejected(builder):
    with pytest.raises(ValueError):
        builder(1)


def test_swap_exchanges_labels():
    p = build_swap_operator(2)
    # |01> at index 1, |10> at index 2
    v = np.zeros(4)
    v[1] = 1.0
    assert np.allclose(p @ v, np.eye(4)[2])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_swap_is_involution(d):
    p = build_swap_operator(d)
    assert np.allclose(p @ p, np.eye(d * d))
    # real permutation matrix
    assert np.all((p == 0) | (p == 1))
    assert np.allclose(p.sum(axis=0), 1.0)


def test_swap_trace_counts_fixed_points():
    assert build_swap_operator(3).trace() == 3.0


def test_swap_coefficients_d3():
    dec = solve_swap_coefficients(3)
    assert np.max(np.abs(dec.b - np.array([-1.0, 1.0, 1.0]))) < 1e-10
    assert dec.residual <= 1e-10


def test_swap_coefficients_d2():
    dec = solve_swap_coefficients(2)
    assert np.max(np.abs(dec.b - np.array([0.5, 2.0]))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_decomposition_reconstructs_swap(d):
    dec = solve_swap_coefficients(d)
    assert dec.residual <= 1e-10
    rebuilt = swap_from_decomposition(dec)
    assert np.max(np.abs(rebuilt - build_swap_operator(d))) < 1e-10
    # hermitian involution survives the reassembly
    assert np.max(np.abs(rebuilt - rebuilt.conj().T)) < 1e-10
    assert np.max(np.abs(rebuilt @ rebuilt - np.eye(d * d))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_scalar_product_preserves_magnetization(d):
    ops = build_spin_operators(d)
    ss = spin_scalar_product(ops)
    total_sz = np.kron(ops.sz, np.eye(d)) + np.kron(np.eye(d), ops.sz)
    assert np.max(np.abs(ss @ total_sz - total_sz @ ss)) < 1e-12


def test_conserved_charge_values():
    spec = ChainSpec(n_sites=3, d=3)
    q1 = conserved_charge(1, spec)
    q2 = conserved_charge(2, spec)
    idx_200 = 2 * 9
    idx_110 = 9 + 3
    assert q1[idx_200] == 2.0
    assert q2[idx_110] == 2.0
    assert q2[idx_200] == 4.0
    # the two states share q1 but not q2, so they sit in different sectors
    assert q1[idx_110] == q1[idx_200]
    assert q1[0] == 0.0 and q2[0] == 0.0


def test_conserved_charge_rejects_bad_order():
    spec = ChainSpec(n_sites=3, d=3)
    for m in (0, 3):
        with pytest.raises(ValueError):
            conserved_charge(m, spec)


def test_conserved_charge_size_guard():
    assert conserved_charge(1, ChainSpec(n_sites=12, d=3)).size == 3 ** 12
    with pytest.raises(ValueError):
        conserved_charge(1, ChainSpec(n_sites=13, d=3))


def test_effective_couplings():
    j, k = effective_couplings(1.0, -2.0, -2.0)
    assert j == pytest.approx(1.0)
    assert k == pytest.approx(1.0)
    j, k = effective_couplings(0.7, 3.1, 3.1)
    assert j == pytest.approx(k)
    assert effective_couplings(0.0, 1.0, 1.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        effective_couplings(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        effective_couplings(1.0, 1.0, 0.0)
