import numpy as np
import pytest

from spinrelay.sector_dynamics import (
    ChainSpec,
    PropagatorMode,
    build_one_particle_hamiltonian,
    eigenpair_residual,
    eigenpair_residual_table,
    eigenpairs_formula,
    exact_propagator,
    gap_report,
    sector_basis,
    spectral_propagator,
)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(n_sites=1)
    with pytest.raises(ValueError):
        ChainSpec(n_sites=4, d=2)
    with pytest.raises(ValueError):
        ChainSpec(n_sites=4, j=0.0)
    with pytest.raises(ValueError):
        ChainSpec(n_sites=4, j=-1.0)
    with pytest.raises(ValueError):
        ChainSpec(n_sites=4, b_field=-0.1)


@pytest.mark.parametrize("kwargs", [
    {"n_sites": 5.5},
    {"n_sites": 5.0},
    {"n_sites": 5, "d": 3.5},
    {"n_sites": 5, "j": float("nan")},
    {"n_sites": 5, "j": float("inf")},
    {"n_sites": 5, "b_field": float("inf")},
    {"n_sites": 5, "b_field": float("nan")},
])
def test_chain_spec_rejects_non_integer_and_non_finite(kwargs):
    with pytest.raises(ValueError):
        ChainSpec(**kwargs)


def test_chain_spec_accepts_numpy_scalars():
    spec = ChainSpec(n_sites=np.int64(6), d=np.int32(4), j=np.float64(1.5))
    assert spec == ChainSpec(n_sites=6, d=4, j=1.5)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_sector_matrix_structure(n):
    j = 1.3
    m = build_one_particle_hamiltonian(ChainSpec(n_sites=n, j=j)).matrix
    assert np.max(np.abs(m - m.T)) < 1e-14
    off = np.diag(m, 1)
    assert np.allclose(off, -j)
    # anything beyond the first off-diagonal vanishes
    assert np.max(np.abs(np.triu(m, 2))) == 0.0
    diag = np.diag(m).copy()
    assert diag[0] == pytest.approx(-j)
    assert diag[-1] == pytest.approx(-j)
    if n > 2:
        assert np.allclose(diag[1:-1], 0.0)


def test_sector_matrix_row_sums_uniform():
    # the all-ones vector is an eigenvector of the hopping + boundary shape
    for n in (2, 4, 7):
        m = build_one_particle_hamiltonian(ChainSpec(n_sites=n, j=2.0)).matrix
        sums = m @ np.ones(n)
        assert np.allclose(sums, sums[0])
        assert sums[0] == pytest.approx(-2 * 2.0)


def test_two_site_gap():
    w = np.linalg.eigvalsh(
        build_one_particle_hamiltonian(ChainSpec(n_sites=2, j=1.7)).matrix
    )
    assert w[1] - w[0] == pytest.approx(2 * 1.7, abs=1e-12)


def test_spectral_propagator_identity_at_zero():
    for n in (2, 5, 40):
        f = spectral_propagator(ChainSpec(n_sites=n), 0.0).f_matrix
        assert np.max(np.abs(f - np.eye(n))) < 1e-12


@pytest.mark.parametrize("mode_fn,mode", [
    (spectral_propagator, PropagatorMode.SPECTRAL_FORMULA),
    (exact_propagator, PropagatorMode.EXACT_DIAGONALIZATION),
])
def test_propagator_unitary_and_symmetric(mode_fn, mode):
    spec = ChainSpec(n_sites=17, j=0.8)
    prop = mode_fn(spec, 7.3)
    assert prop.mode is mode
    f = prop.f_matrix
    assert np.max(np.abs(f.conj().T @ f - np.eye(17))) < 1e-10
    assert np.max(np.abs(f - f.T)) < 1e-10


def test_propagator_rejects_negative_time():
    with pytest.raises(ValueError):
        exact_propagator(ChainSpec(n_sites=4), -0.1)


def test_exact_propagator_two_site_transfer():
    # gap 2J, so the excitation fully crosses at Jt = pi/2
    j = 1.0
    f = exact_propagator(ChainSpec(n_sites=2, j=j), np.pi / 2).f_matrix
    assert abs(f[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_exact_propagator_composition():
    spec = ChainSpec(n_sites=11)
    f1 = exact_propagator(spec, 1.3).f_matrix
    f2 = exact_propagator(spec, 2.9).f_matrix
    f12 = exact_propagator(spec, 4.2).f_matrix
    assert np.max(np.abs(f2 @ f1 - f12)) < 1e-10


@pytest.mark.parametrize("mode", ["exact", "spectral"])
def test_first_column_probability_conserved(mode):
    spec = ChainSpec(n_sites=23)
    for t in (0.7, 4.1, 19.0):
        basis = sector_basis(spec, mode)
        c = np.zeros(23, dtype=complex)
        c[0] = 1.0
        evolved = basis.evolve(c, t)
        assert np.sum(np.abs(evolved) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_field_enters_as_global_phase():
    # evolving with the sector matrix plus mu*B on the diagonal equals
    # exp(-i mu B t) times the field-free propagator
    spec = ChainSpec(n_sites=6, b_field=0.9)
    mu, t = 2, 3.7
    m = build_one_particle_hamiltonian(spec).matrix
    w, u = np.linalg.eigh(m + mu * spec.b_field * np.eye(6))
    f_with_field = (u * np.exp(-1j * w * t)) @ u.T
    f = exact_propagator(spec, t).f_matrix
    assert np.max(np.abs(f_with_field - np.exp(-1j * mu * spec.b_field * t) * f)) < 1e-12


def test_formula_eigenpairs():
    spec = ChainSpec(n_sites=2, j=1.0)
    pairs = eigenpairs_formula(spec)
    assert pairs[0][0] == pytest.approx(-2 * np.cos(np.pi / 5), abs=1e-14)
    vs = np.column_stack([v for _, v in pairs])
    assert np.max(np.abs(vs.T @ vs - np.eye(2))) < 1e-12


def test_formula_eigenpairs_orthonormal_large():
    spec = ChainSpec(n_sites=37)
    vs = np.column_stack([v for _, v in eigenpairs_formula(spec)])
    assert np.max(np.abs(vs.T @ vs - np.eye(37))) < 1e-12


def test_formula_eigenvalue_field_offset():
    spec = ChainSpec(n_sites=5, b_field=0.7)
    base = eigenpairs_formula(spec, mu=0)
    shifted = eigenpairs_formula(spec, mu=2)
    for (w0, _), (w2, _) in zip(base, shifted):
        assert w2 - w0 == pytest.approx(1.4, abs=1e-14)


def test_formula_residual_positive():
    # the closed-form pairs do not diagonalize the constructed matrix
    assert eigenpair_residual(ChainSpec(n_sites=2)) > 0.1
    for n, res in eigenpair_residual_table([3, 5, 10, 30]):
        assert res > 0.0


def test_exact_eigenpairs_self_residual():
    spec = ChainSpec(n_sites=9)
    m = build_one_particle_hamiltonian(spec).matrix
    w, v = np.linalg.eigh(m)
    res = np.max(np.linalg.norm(m @ v - v * w, axis=0))
    assert res <= 1e-10


def test_gap_report_two_sites():
    rep = gap_report(ChainSpec(n_sites=2, j=1.0))
    assert rep["formula_gap"] == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert rep["exact_gap"] == pytest.approx(2.0, abs=1e-12)
    assert rep["residual"] > 0.0


def test_basis_cache_reuse():
    spec = ChainSpec(n_sites=14)
    assert sector_basis(spec, "exact") is sector_basis(spec, "exact")
    assert sector_basis(spec, "exact") is not sector_basis(spec, "spectral")
