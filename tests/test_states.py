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
    BlockDensity,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    EigenSystem,
    Mixture,
    RangeLimitError,
    assemble_hamiltonian,
    build_model_hamiltonian,
    chain_volume,
    density_matrix,
    eeb_deficit,
    eeb_terms,
    embed,
    expectation,
    full_spectrum,
    gibbs,
    ground_space,
    heisenberg,
    kms_residual,
    kms_terms,
    maximally_mixed,
    mixture,
    pure,
    random_probe_pairs,
    spin_algebra,
    spin_matrices,
    stability_value,
    states,
)
from spinmodels.interactions import MODEL_NAMES, MODELS
from spinmodels.spin_algebra import _BlockPlan, eigenvector_columns


def _two_site(j):
    vol = chain_volume(2, boundary="open")
    return assemble_hamiltonian(heisenberg(j=j), vol).toarray()


def test_pure_keeps_the_dtype_and_refuses_the_zero_vector():
    real, cplx = pure(np.array([3.0, 4.0])), pure(np.array([1.0, 1j]))
    assert real.vectors.dtype == np.float64 and cplx.vectors.dtype == np.complex128
    assert real.vectors.shape == (2, 1) and abs(real.weights[0] - 1 / 25) < 1e-17
    assert abs(expectation(real, np.eye(2)) - 1.0) < 1e-15
    assert pure([1, 0]).vectors.dtype == np.float64  # integers promote
    with pytest.raises(DomainError):
        pure(np.zeros(4))


def test_density_matrix_validation():
    good = np.diag([0.5, 0.5]).astype(complex)
    density_matrix(good)
    with pytest.raises(DomainError):
        density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        density_matrix(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(DomainError):
        density_matrix(np.diag([1.5, -0.5]))  # negative weight


def test_density_matrix_of_a_rank_two_rho_is_a_two_column_mixture():
    rng = np.random.default_rng(53)
    for dtype in (np.float64, np.complex128):
        v = rng.standard_normal((6, 2))
        if dtype == np.complex128:
            v = v + 1j * rng.standard_normal((6, 2))
        v = np.linalg.qr(v)[0]
        rho = (v * [0.3, 0.7]) @ v.conj().T
        mix = density_matrix(rho)
        assert isinstance(mix, Mixture) and mix.vectors.shape == (6, 2)
        assert mix.vectors.dtype == dtype and np.allclose(mix.weights, [0.3, 0.7], atol=1e-14)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for op in (a, sp.csr_array(a)):
            want = complex(np.trace(a @ rho))
            assert abs(expectation(mix, op) - want) <= 1e-13


def test_density_matrix_constructors(dense_state):
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = pure(psi)
    assert isinstance(rho, Mixture) and rho.vectors.shape == (2, 1)
    assert np.allclose(dense_state(rho), 0.5 * np.ones((2, 2)))
    mm = maximally_mixed(4)
    assert np.array_equal(dense_state(mm), np.eye(4) / 4) and mm.data.size == 4
    vecs = np.eye(3)[:, :2]
    mix = mixture(vecs)
    assert np.allclose(dense_state(mix), np.diag([0.5, 0.5, 0.0]))


def test_gibbs_single_spin_closed_form(dense_state):
    ops = spin_matrices(0.5)
    for beta in (0.2, 1.0, 3.7):
        g = gibbs(ops.s3, beta)
        assert abs(np.exp(g.log_z) - 2 * np.cosh(beta / 2)) < 1e-12
        got = expectation(g.rho, ops.s3).real
        assert abs(got - (-np.tanh(beta / 2) / 2)) < 1e-14
    # beta = 0 is the tracial state
    g0 = gibbs(ops.s3, 0.0)
    assert np.allclose(dense_state(g0.rho), np.eye(2) / 2, atol=1e-15)


def test_gibbs_large_beta_projects_to_ground(dense_state):
    # the shifted weights make huge beta safe: no overflow, pure ground state
    h = _two_site(-1.0)
    g = gibbs(h, 1e6)
    v = eigenvector_columns(full_spectrum(h))
    p0 = np.outer(v[:, 0], v[:, 0].conj())
    assert np.allclose(dense_state(g.rho), p0, atol=1e-12)


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
    # a raw vector is read as pure(psi)
    rng = np.random.default_rng(23)
    for _ in range(5):
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi /= np.linalg.norm(psi)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        via_vec = expectation(psi, a)
        via_rho = expectation(pure(psi), a)
        assert abs(via_vec - via_rho) < 1e-12
        assert abs(via_rho - np.vdot(psi, a @ psi)) < 1e-12


def test_a_raw_matrix_is_not_a_state():
    rho = np.eye(4) / 4
    with pytest.raises(DomainError, match="density_matrix"):
        expectation(rho, np.eye(4))
    x = np.ones((4, 4))
    with pytest.raises(DomainError, match="density_matrix"):
        eeb_terms(np.diag([0.0, 1.0, 2.0, 3.0]), x).deficit(0.5, rho)
    assert abs(expectation(density_matrix(rho), x) - 1.0) < 1e-15


def test_expectation_trace_is_elementwise_for_dense_and_csr(dense_state):
    rng = np.random.default_rng(31)
    psi = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    rho = mixture(psi)
    dense = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    csr = sp.random_array((12, 12), density=0.2, rng=rng, dtype=complex, format="csr")
    for a, ad in ((dense, dense), (csr, csr.toarray())):
        want = np.trace(ad @ dense_state(rho))
        assert abs(expectation(rho, a) - want) <= 1e-14


def test_expectation_in_a_random_complex_matrix_reads_stored_entries():
    # Tr(A rho) for any complex rho, here the one block of a BlockDensity
    # (block 0 empty): a CSR A may carry unsorted column indices, duplicate
    # entries (which add) and explicit zeros
    rng = np.random.default_rng(37)
    matrix = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    plan = _BlockPlan(np.ones(12, np.intp), np.arange(12), np.array([0, 0, 12]), False,
                      np.arange(2))
    rho = BlockDensity(plan, matrix.reshape(-1))
    dense = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    indptr = np.zeros(13, dtype=np.int32)
    indptr[[1, 4, 8, 12]] = [2, 3, 1, 1]  # rows 0, 3, 7 and 11
    messy = sp.csr_array((np.array([1 + 2j, -0.5j, 3.0, 0.25, -1.5, 0.0, 2 - 1j]),
                          np.array([5, 2, 9, 1, 9, 4, 0]), np.cumsum(indptr)), shape=(12, 12))
    assert not messy.has_sorted_indices and messy.nnz == 7
    scale = np.max(np.abs(matrix)) * 12
    for a, ad in ((dense, dense), (sp.csr_array(dense), dense), (messy, messy.toarray())):
        want = np.trace(ad @ matrix)
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
        assert np.array_equal(gibbs(es, beta).rho.data, gibbs(h, beta).rho.data)
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
    ops = spin_matrices(0.5)
    beta_state, beta_dyn = 0.5, 2.0
    g = gibbs(ops.s3, beta_state)
    shifted = EigenSystem(ops.s3).evolve_imaginary(ops.sm, beta_dyn)
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
    v = eigenvector_columns(full_spectrum(h))
    gs, exc = v[:, 0], v[:, 3]
    x = np.outer(gs, exc.conj()) + 1e-3 * np.outer(exc, gs.conj())
    d = eeb_deficit(h, 0.5, x, pure(exc))
    assert d < -1.0


def test_eeb_degenerate_weights():
    h = _two_site(-1.0)
    v = eigenvector_columns(full_spectrum(h))
    gs, e1 = v[:, 0], v[:, 1]
    state = pure(gs)
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
    v = eigenvector_columns(full_spectrum(h))
    state = pure(v[:, 0])
    rng = np.random.default_rng(43)
    for _ in range(40):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert stability_value(h, state, a) > -1e-12


def test_stability_counterexample_on_excited_state():
    # |gs><top| pulls the top state down: omega(A*[H,A]) = -(E_top - E_gs) = -1
    h = _two_site(1.0)
    v = eigenvector_columns(full_spectrum(h))
    gs, top = v[:, 0], v[:, 3]
    a = np.outer(gs, top.conj())
    val = stability_value(h, pure(top), a)
    assert abs(val - (-1.0)) < 1e-12


def test_stability_requires_hermitian_hamiltonian():
    with pytest.raises(DomainError):
        stability_value(np.array([[0.0, 1.0], [0.0, 0.0]]), pure(np.ones(2)), np.eye(2))


def test_stability_takes_only_a_mixture():
    # a ground-state criterion: a Gibbs state or a raw vector is refused
    h = _two_site(-1.0)
    for state in (gibbs(h, 1.0).rho, maximally_mixed(4), np.ones(4)):
        with pytest.raises(DomainError, match="Mixture"):
            stability_value(h, state, np.eye(4))


def test_eeb_requires_hermitian_hamiltonian():
    with pytest.raises(DomainError):
        eeb_deficit(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5, np.eye(2),
                    maximally_mixed(2))


def test_eeb_and_stability_take_hermiticity_from_an_eigen_system(monkeypatch):
    # the EigenSystem checked H when it was built; the checks do not rescan it
    h = assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(4, boundary="periodic")).tocsr()
    es = EigenSystem(h)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    state, ground = gibbs(es, 0.8).rho, mixture(ground_space(es).basis)
    want = (eeb_deficit(h, 0.8, x, state), stability_value(h, ground, x))
    monkeypatch.setattr(spin_algebra, "is_hermitian",
                        lambda *args: pytest.fail("rescanned H for Hermiticity"))
    assert (eeb_deficit(es, 0.8, x, state), stability_value(es, ground, x)) == want


def test_prepared_terms_are_vectors_and_sparse_products():
    # per probe, O(dim + nnz) is kept: never a dim x dim array
    vol = chain_volume(6, boundary="open")
    es = EigenSystem(assemble_hamiltonian(heisenberg(j=-1.0), vol))
    (a, b), = random_probe_pairs(vol, 2, 1)
    kms = kms_terms(es, a, b)
    assert kms.flow.shape == kms.energies.shape == (es.dim,) and sp.issparse(kms.ba)
    assert all(sp.issparse(op) for op in eeb_terms(es, a))


def test_density_matrices_of_a_real_h_are_float64(dm_chain):
    # a real H gives real eigenvectors, so its Gibbs state and the mixture of
    # its ground basis are float64; the complex dm_chain keeps both complex.
    # The Gibbs state holds its size-1 blocks' weights and d_b^2 entries per
    # larger block, the mixture its dim x k vectors
    real = assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(8, boundary="periodic"))
    for h, dtype in ((real, np.float64), (dm_chain(8), np.complex128)):
        es = EigenSystem(h)
        sizes = np.diff(es.plan.starts)
        rho, mix = gibbs(es, 0.7).rho, mixture(ground_space(es).basis)
        assert rho.data.dtype == mix.vectors.dtype == dtype
        assert rho.data.size == sizes[0] + np.sum(sizes[1:] ** 2) < es.dim**2 // 4
        assert mix.vectors.shape == (es.dim, ground_space(es).degeneracy)


_PARAMS = {"xy_field": {"h": 0.3}, "ising": {"h": 0.4}, "xxz_suq2": {"q": 0.5}}
RECORDS = [(name, boundary) for name in MODEL_NAMES for boundary in ("open", "periodic")
           if boundary == "open" or not MODELS[name].open_chain_only] + [("dm_chain", "periodic")]


@pytest.fixture(params=RECORDS, ids=["-".join(r) for r in RECORDS])
def record(request, dm_chain):
    """(H as CSR, its chain volume) for one model record on an open or
    periodic chain of 8 spins 1/2 or 5 spins 1, or for the DM ring of 8."""
    name, boundary = request.param
    if name == "dm_chain":
        return dm_chain(8), chain_volume(8, "periodic")
    params = _PARAMS.get(name, {})
    local_dim = MODELS[name].interaction(params).local_dim
    vol = chain_volume(8 if local_dim == 2 else 5, boundary, local_dim=local_dim)
    return build_model_hamiltonian(name, params, vol).tocsr(), vol


def _site_operators(vol):
    """S3 at site 0 keeps H's blocks; S1 at site 0 couples pairs of them."""
    ops = spin_matrices((vol.local_dim - 1) / 2.0)
    return [embed(ops.s3, [(0,)], vol), embed(ops.s1, [(0,)], vol)]


def _with_duplicates(x, y):
    """A CSR matrix storing every entry of x and of y, row by row, without
    summing the positions they share: x + y with duplicate entries."""
    rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    rows = np.r_[rows, np.repeat(np.arange(y.shape[0]), np.diff(y.indptr))]
    order = np.argsort(rows, kind="stable")
    return sp.csr_array((np.r_[x.data, y.data][order], np.r_[x.indices, y.indices][order],
                         x.indptr + y.indptr), shape=x.shape)


def test_block_gibbs_state_equals_one_full_complex_eigh(record, dense_state):
    h, _ = record
    es = EigenSystem(h)
    w, v = np.linalg.eigh(h.toarray().astype(np.complex128))
    for beta in (0.0, 0.5, 2.0):
        p = np.exp(-beta * (w - w[0]))
        want = (v * (p / p.sum())) @ v.conj().T
        assert np.max(np.abs(dense_state(gibbs(es, beta).rho) - want)) < 1e-13


def test_block_expectation_equals_the_dense_gather(record, dense_trace):
    # operators inside H's blocks, across two of them (their entries read 0),
    # on size-1 blocks (every ising block, the fully polarized states of the
    # others) and with duplicate CSR entries, which add
    h, vol = record
    es = EigenSystem(h)
    s3, s1 = _site_operators(vol)
    a, b = random_probe_pairs(vol, 29, 1)[0]
    ops = [h, s3, s1, a, b @ a, _with_duplicates(h, s3 + s1), _with_duplicates(a, a)]
    assert _with_duplicates(h, s3).nnz == h.nnz + s3.nnz
    for beta in (0.0, 1.3):
        rho = gibbs(es, beta).rho
        assert expectation(rho, s1) == 0.0
        for op in ops:
            want = dense_trace(rho, op)
            tol = 1e-14 * max(1.0, float(np.sum(np.abs(op.data))))
            assert abs(expectation(rho, op) - want) <= tol
            assert abs(expectation(rho, op.toarray()) - want) <= tol


def test_matvec_stability_equals_the_dense_mixture_products(record, dense_stability):
    h, vol = record
    es = EigenSystem(h)
    mix = mixture(ground_space(es).basis)
    scale = max(1.0, float(np.max(np.abs(es.eigenvalues))))
    probes = [op for pair in random_probe_pairs(vol, 31, 4) for op in pair] + _site_operators(vol)
    for a in probes:
        want = dense_stability(h, mix, a)
        for hh in (h, h.toarray()):
            assert abs(stability_value(hh, mix, a) - want) <= 1e-12 * scale


def test_stability_in_a_mixture_forms_no_operator_product(monkeypatch):
    h = assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(6, boundary="open"))
    es = EigenSystem(h)
    mix = mixture(ground_space(es).basis)
    a, _ = random_probe_pairs(chain_volume(6, boundary="open"), 3, 1)[0]
    want = stability_value(es, mix, a)
    for name in ("adjoint", "commutator"):
        monkeypatch.setattr(states, name, lambda *args, name=name: pytest.fail(f"called {name}"))
    assert stability_value(es, mix, a) == want
    assert stability_value(es, pure(ground_space(es).basis[:, 0]), a) > -1e-12
