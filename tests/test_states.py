"""States and equilibrium functionals: Gibbs, KMS, energy-entropy balance,
ground-state stability.

The single-spin closed forms used as oracles, for H = S3:
    Z          = 2 cosh(beta/2)
    <S3>       = -tanh(beta/2) / 2
    e^{-bH} S- e^{bH} = e^{beta} S-
"""

import numpy as np
import pytest
import scipy.sparse as sp

from spinmodels import (
    DegenerateInputError,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    EigenSystem,
    RangeLimitError,
    StateVector,
    assemble_hamiltonian,
    chain_volume,
    eeb_deficit,
    eeb_terms,
    expectation,
    full_spectrum,
    gibbs,
    heisenberg,
    kms_residual,
    kms_terms,
    random_probe_pairs,
    spin_algebra,
    spin_matrices,
    stability_value,
)


def _two_site(j):
    vol = chain_volume(2, boundary="open")
    return assemble_hamiltonian(heisenberg(j=j), vol).toarray()


def test_state_vector_validation():
    psi = np.array([1.0, 0.0], dtype=complex)
    StateVector(psi)
    with pytest.raises(DomainError):
        StateVector(2.0 * psi)
    sv = StateVector.normalized(np.array([3.0, 4.0]))
    assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-15
    with pytest.raises(DomainError):
        StateVector.normalized(np.zeros(4))


def test_density_matrix_validation():
    good = np.diag([0.5, 0.5]).astype(complex)
    DensityMatrix(good)
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(DomainError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative weight


def test_density_matrix_constructors():
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = DensityMatrix.pure(psi)
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))
    mm = DensityMatrix.maximally_mixed(4)
    assert np.allclose(mm.matrix, np.eye(4) / 4)
    vecs = np.eye(3)[:, :2]
    mix = DensityMatrix.mixture(vecs)
    assert np.allclose(mix.matrix, np.diag([0.5, 0.5, 0.0]))


def test_gibbs_single_spin_closed_form():
    ops = spin_matrices(0.5)
    for beta in (0.2, 1.0, 3.7):
        g = gibbs(ops.s3, beta)
        assert abs(g.z - 2 * np.cosh(beta / 2)) < 1e-12
        got = expectation(g.rho, ops.s3).real
        assert abs(got - (-np.tanh(beta / 2) / 2)) < 1e-14
    # beta = 0 is the tracial state
    g0 = gibbs(ops.s3, 0.0)
    assert np.allclose(g0.rho.matrix, np.eye(2) / 2, atol=1e-15)


def test_gibbs_large_beta_projects_to_ground():
    # the shifted weights make huge beta safe: no overflow, pure ground state
    h = _two_site(-1.0)
    g = gibbs(h, 1e6)
    sol = full_spectrum(h)
    p0 = np.outer(sol.eigenvectors[:, 0], sol.eigenvectors[:, 0].conj())
    assert np.allclose(g.rho.matrix, p0, atol=1e-12)


def test_gibbs_input_validation():
    ops = spin_matrices(0.5)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            gibbs(ops.s3, bad)
    with pytest.raises(DomainError):
        gibbs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_gibbs_energy_decreases_with_beta():
    h = _two_site(-1.0)
    energies = [expectation(gibbs(h, b).rho, h).real for b in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(e2 < e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_expectation_routes_agree():
    rng = np.random.default_rng(23)
    for _ in range(5):
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi /= np.linalg.norm(psi)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        via_vec = expectation(StateVector(psi), a)
        via_rho = expectation(DensityMatrix.pure(psi), a)
        assert abs(via_vec - via_rho) < 1e-12


def test_expectation_trace_is_elementwise_for_dense_and_csr():
    rng = np.random.default_rng(31)
    psi = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    rho = DensityMatrix.mixture(psi)
    dense = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    csr = sp.random_array((12, 12), density=0.2, rng=rng, dtype=complex, format="csr")
    for a, ad in ((dense, dense), (csr, csr.toarray())):
        want = np.trace(ad @ rho.matrix)
        assert abs(expectation(rho, a) - want) <= 1e-14


def test_expectation_in_a_random_complex_matrix_reads_stored_entries():
    # Tr(A rho) for any complex rho: a CSR A may carry unsorted column
    # indices, duplicate entries (which add) and explicit zeros
    rng = np.random.default_rng(37)
    rho = DensityMatrix(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)),
                        validate=False)
    dense = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    indptr = np.zeros(13, dtype=np.int32)
    indptr[[1, 4, 8, 12]] = [2, 3, 1, 1]  # rows 0, 3, 7 and 11
    messy = sp.csr_array((np.array([1 + 2j, -0.5j, 3.0, 0.25, -1.5, 0.0, 2 - 1j]),
                          np.array([5, 2, 9, 1, 9, 4, 0]), np.cumsum(indptr)), shape=(12, 12))
    assert not messy.has_sorted_indices and messy.nnz == 7
    scale = np.max(np.abs(rho.matrix)) * 12
    for a, ad in ((dense, dense), (sp.csr_array(dense), dense), (messy, messy.toarray())):
        want = np.trace(ad @ rho.matrix)
        assert abs(expectation(rho, a) - want) <= 1e-14 * scale * max(1.0, np.max(np.abs(ad)))
    for a in (dense[:10, :10], sp.csr_array(dense[:10, :10])):
        with pytest.raises(DimensionMismatchError):
            expectation(rho, a)


def test_kms_residual_single_spin():
    ops = spin_matrices(0.5)
    for beta in (0.1, 1.0, 10.0):
        assert kms_residual(ops.s3, beta, ops.sp, ops.sm) < 1e-12


def test_kms_residual_random_pairs_on_chain():
    vol = chain_volume(3, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol).toarray()
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert kms_residual(h, 0.7, a, b) < 1e-10


def test_gibbs_and_kms_accept_a_shared_eigen_system():
    h = assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(4, boundary="periodic"))
    es = EigenSystem(h)
    for beta in (0.0, 0.7, 3.0):
        assert np.array_equal(gibbs(es, beta).rho.matrix, gibbs(h, beta).rho.matrix)
        assert gibbs(es, beta).log_z == gibbs(h, beta).log_z
    rng = np.random.default_rng(4)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert kms_residual(es, 1.2, a, b) == kms_residual(h, 1.2, a, b)
    assert kms_residual(es, 1.2, a, b) < 1e-12


def test_kms_residual_stays_at_rounding_for_deep_beta():
    # beta * spread ~ 40 here; a route that materializes the conjugated
    # operator would amplify rounding by e^{beta*spread} and lose ~11 digits
    vol = chain_volume(4, boundary="open")
    h = assemble_hamiltonian(heisenberg(j=1.0), vol).toarray()
    rng = np.random.default_rng(47)
    for _ in range(10):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        assert kms_residual(h, 10.0, a, b) < 1e-12


def test_kms_identity_fails_for_wrong_temperature():
    """The residual is a real test: evaluating the equilibrium identity with a
    state at the wrong temperature leaves a visible gap."""
    from spinmodels import evolve_imaginary

    ops = spin_matrices(0.5)
    beta_state, beta_dyn = 0.5, 2.0
    g = gibbs(ops.s3, beta_state)
    shifted = evolve_imaginary(ops.s3, ops.sm, beta_dyn)
    lhs = expectation(g.rho, ops.sp @ shifted)
    rhs = expectation(g.rho, ops.sm @ ops.sp)
    assert abs(lhs - rhs) > 0.1


def test_kms_range_guard():
    ops = spin_matrices(0.5)
    with pytest.raises(RangeLimitError):
        kms_residual(ops.s3, 1e4, ops.sp, ops.sm)


def test_eeb_nonnegative_on_gibbs_states():
    h = _two_site(-1.0)
    rng = np.random.default_rng(37)
    for beta in (0.3, 1.0, 4.0):
        state = gibbs(h, beta).rho
        for _ in range(20):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert eeb_deficit(h, beta, x, state) > -1e-10


def test_eeb_tracial_equality_at_beta_zero():
    h = _two_site(-1.0)
    state = gibbs(h, 0.0).rho
    rng = np.random.default_rng(41)
    for _ in range(20):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(eeb_deficit(h, 0.0, x, state)) < 1e-12


def test_eeb_witnesses_non_equilibrium_state():
    # X ~ |ground><excited| applied to the pure excited state: the energy
    # side is -beta*gap while the entropy side diverges upward, so the
    # balance goes strongly negative.
    h = _two_site(-1.0)
    sol = full_spectrum(h)
    gs, exc = sol.eigenvectors[:, 0], sol.eigenvectors[:, 3]
    x = np.outer(gs, exc.conj()) + 1e-3 * np.outer(exc, gs.conj())
    d = eeb_deficit(h, 0.5, x, DensityMatrix.pure(exc))
    assert d < -1.0


def test_eeb_degenerate_weights():
    h = _two_site(-1.0)
    sol = full_spectrum(h)
    gs, e1 = sol.eigenvectors[:, 0], sol.eigenvectors[:, 1]
    state = DensityMatrix.pure(gs)
    # X annihilates the state: omega(X*X) = 0
    x = np.outer(gs, e1.conj())
    with pytest.raises(DegenerateInputError):
        eeb_deficit(h, 0.5, x, state)
    assert eeb_deficit(h, 0.5, x, state, allow_degenerate=True) >= -1e-12
    # omega(X X*) = 0 with omega(X*X) > 0 diverges and is always refused
    x2 = np.outer(e1, gs.conj())
    with pytest.raises(DegenerateInputError):
        eeb_deficit(h, 0.5, x2, state, allow_degenerate=True)


def test_stability_nonnegative_on_ground_states():
    h = _two_site(-1.0)
    sol = full_spectrum(h)
    state = DensityMatrix.pure(sol.eigenvectors[:, 0])
    rng = np.random.default_rng(43)
    for _ in range(40):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert stability_value(h, state, a) > -1e-12


def test_stability_counterexample_on_excited_state():
    # |gs><top| pulls the top state down: omega(A*[H,A]) = -(E_top - E_gs) = -1
    h = _two_site(1.0)
    sol = full_spectrum(h)
    gs, top = sol.eigenvectors[:, 0], sol.eigenvectors[:, 3]
    a = np.outer(gs, top.conj())
    val = stability_value(h, DensityMatrix.pure(top), a)
    assert abs(val - (-1.0)) < 1e-12


def test_stability_requires_hermitian_hamiltonian():
    with pytest.raises(DomainError):
        stability_value(np.array([[0.0, 1.0], [0.0, 0.0]]),
                        DensityMatrix.maximally_mixed(2), np.eye(2))


def test_eeb_requires_hermitian_hamiltonian():
    with pytest.raises(DomainError):
        eeb_deficit(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5, np.eye(2),
                    DensityMatrix.maximally_mixed(2))


def test_eeb_and_stability_take_hermiticity_from_an_eigen_system(monkeypatch):
    # the EigenSystem checked H when it was built; the checks do not rescan it
    h = assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(4, boundary="periodic")).tocsr()
    es = EigenSystem(h)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    state = gibbs(es, 0.8).rho
    want = (eeb_deficit(h, 0.8, x, state), stability_value(h, state, x))
    monkeypatch.setattr(spin_algebra, "is_hermitian",
                        lambda *args: pytest.fail("rescanned H for Hermiticity"))
    assert (eeb_deficit(es, 0.8, x, state), stability_value(es, state, x)) == want


def test_prepared_terms_are_vectors_and_sparse_products():
    # per probe, O(dim + nnz) is kept: never a dim x dim array
    vol = chain_volume(6, boundary="open")
    es = EigenSystem(assemble_hamiltonian(heisenberg(j=-1.0), vol))
    (a, b), = random_probe_pairs(vol, 2, 1)
    kms = kms_terms(es, a, b)
    assert kms.flow.shape == kms.energies.shape == (es.dim,) and sp.issparse(kms.ba)
    assert all(sp.issparse(op) for op in eeb_terms(es, a))
