import numpy as np
import pytest

from spinrelay.sector_dynamics import (
    ChainSpec,
    PropagatorMode,
    build_one_particle_hamiltonian,
    eigenpair_residual,
    gap_report,
    sector_basis,
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
    m = build_one_particle_hamiltonian(ChainSpec(n_sites=n, j=j))
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
        m = build_one_particle_hamiltonian(ChainSpec(n_sites=n, j=2.0))
        sums = m @ np.ones(n)
        assert np.allclose(sums, sums[0])
        assert sums[0] == pytest.approx(-2 * 2.0)


def test_two_site_gap():
    w = np.linalg.eigvalsh(
        build_one_particle_hamiltonian(ChainSpec(n_sites=2, j=1.7))
    )
    assert w[1] - w[0] == pytest.approx(2 * 1.7, abs=1e-12)


def test_spectral_propagator_identity_at_zero():
    for n in (2, 5, 40):
        f = sector_basis(ChainSpec(n_sites=n), "spectral").f_matrix(0.0)
        assert np.max(np.abs(f - np.eye(n))) < 1e-12


@pytest.mark.parametrize("mode", ["spectral", "exact"])
def test_propagator_unitary_and_symmetric(mode):
    spec = ChainSpec(n_sites=17, j=0.8)
    basis = sector_basis(spec, mode)
    assert basis.mode is PropagatorMode(mode)
    f = basis.f_matrix(7.3)
    assert np.max(np.abs(f.conj().T @ f - np.eye(17))) < 1e-10
    assert np.max(np.abs(f - f.T)) < 1e-10


def test_propagator_rejects_negative_time():
    for mode in ("exact", "spectral"):
        with pytest.raises(ValueError):
            sector_basis(ChainSpec(n_sites=4), mode).f_matrix(-0.1)


def test_exact_propagator_two_site_transfer():
    # gap 2J, so the excitation fully crosses at Jt = pi/2
    j = 1.0
    f = sector_basis(ChainSpec(n_sites=2, j=j), "exact").f_matrix(np.pi / 2)
    assert abs(f[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_exact_propagator_composition():
    basis = sector_basis(ChainSpec(n_sites=11), "exact")
    f1 = basis.f_matrix(1.3)
    f2 = basis.f_matrix(2.9)
    f12 = basis.f_matrix(4.2)
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
    m = build_one_particle_hamiltonian(spec)
    w, u = np.linalg.eigh(m + mu * spec.b_field * np.eye(6))
    f_with_field = (u * np.exp(-1j * w * t)) @ u.T
    f = sector_basis(spec, "exact").f_matrix(t)
    assert np.max(np.abs(f_with_field - np.exp(-1j * mu * spec.b_field * t) * f)) < 1e-12


def test_formula_eigenpairs():
    basis = sector_basis(ChainSpec(n_sites=2, j=1.0), "spectral")
    assert basis.freqs[0] == pytest.approx(-2 * np.cos(np.pi / 5), abs=1e-14)
    vs = basis.vectors
    assert np.max(np.abs(vs.T @ vs - np.eye(2))) < 1e-12


def test_formula_eigenpairs_orthonormal_large():
    vs = sector_basis(ChainSpec(n_sites=37), "spectral").vectors
    assert np.max(np.abs(vs.T @ vs - np.eye(37))) < 1e-12


def test_formula_eigenvalue_field_offset():
    # level mu sees the sector matrix plus mu*B on the diagonal, which
    # shifts every closed-form eigenvalue by exactly mu*B
    spec = ChainSpec(n_sites=5, b_field=0.7)
    basis = sector_basis(spec, "spectral")
    m = build_one_particle_hamiltonian(spec)
    m[0, 0] = 0.0  # -J at the receiver end only, as the modes need
    for mu in (0, 2):
        offset = mu * spec.b_field
        res = (m + offset * np.eye(5)) @ basis.vectors - basis.vectors * (
            basis.freqs + offset
        )
        assert np.max(np.abs(res)) < 1e-14


def test_spectral_modes_diagonalize_the_receiver_end_chain():
    # the sine modes are exact for the chain with -J at the receiver end
    # only; against the swap chain, -J at both ends, the largest
    # eigenpair residual falls like N^-1/2 but never vanishes
    for n, swap_residual in ((2, 0.85), (9, 0.46), (25, 0.28), (300, 0.08)):
        spec = ChainSpec(n_sites=n)
        basis = sector_basis(spec, "spectral")
        m = build_one_particle_hamiltonian(spec)

        def residual(matrix):
            res = matrix @ basis.vectors - basis.vectors * basis.freqs
            return float(np.max(np.linalg.norm(res, axis=0)))

        assert residual(m) == pytest.approx(swap_residual, abs=0.005)
        m[0, 0] = 0.0
        assert residual(m) < 1e-12


def test_formula_residual_positive():
    # the closed-form pairs do not diagonalize the constructed matrix
    assert eigenpair_residual(ChainSpec(n_sites=2)) > 0.1
    for n in (3, 5, 10, 30):
        assert eigenpair_residual(ChainSpec(n_sites=n)) > 0.0


def test_exact_eigenpairs_self_residual():
    spec = ChainSpec(n_sites=9)
    m = build_one_particle_hamiltonian(spec)
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
