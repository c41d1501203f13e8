import sys

import numpy as np
import pytest
import scipy.sparse as sp

from spinmodels import (
    DomainError,
    SolverError,
    assemble_hamiltonian,
    chain_volume,
    heisenberg,
    lowest_eigenpairs,
    spin_algebra,
)


def _random_sparse_hermitian(n, density, seed):
    rng = np.random.default_rng(seed)
    m = sp.random_array((n, n), density=density, rng=rng, dtype=np.float64)
    m = m + 1j * sp.random_array((n, n), density=density, rng=rng, dtype=np.float64)
    m = (m + m.conj().T).tocsr()
    return m


def test_matches_dense_solver_on_random_matrices():
    for seed in (0, 1, 2, 3):
        m = _random_sparse_hermitian(200, 0.05, seed)
        want = np.linalg.eigvalsh(m.toarray())[:5]
        res = lowest_eigenpairs(m, 5, seed=seed)
        assert np.allclose(res.eigenvalues, want, atol=1e-9)
        # eigenvectors: orthonormal and residual-bounded
        v = res.eigenvectors
        assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-10)
        scale = max(1.0, np.max(np.abs(want)))
        for i in range(5):
            r = np.linalg.norm(m @ v[:, i] - res.eigenvalues[i] * v[:, i])
            assert r <= 1e-8 * scale


def test_known_diagonal_spectrum():
    diag = np.concatenate([np.zeros(3), np.arange(1.0, 60.0)])
    m = sp.diags_array(diag, format="csr")
    # triple ground state needs a block at least as wide as the multiplicity
    res = lowest_eigenpairs(m, 4, block_size=4)
    assert np.allclose(res.eigenvalues, [0.0, 0.0, 0.0, 1.0], atol=1e-10)


def test_degenerate_ferromagnet_ground_space():
    # L=8 ring ferromagnet: the ground multiplet has dimension L+1 = 9
    vol = chain_volume(8, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=1.0), vol).tocsr()
    res = lowest_eigenpairs(h, 9, block_size=9)
    e0 = res.eigenvalues[0]
    assert np.allclose(res.eigenvalues, e0, atol=1e-9)
    dense_e0 = np.linalg.eigvalsh(h.toarray())[0]
    assert abs(e0 - dense_e0) < 1e-10


def test_afm_chain_agrees_with_dense():
    vol = chain_volume(8, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol).tocsr()
    res = lowest_eigenpairs(h, 3)
    want = np.linalg.eigvalsh(h.toarray())[:3]
    assert np.allclose(res.eigenvalues, want, atol=1e-10)


def test_iteration_budget_raises_solver_error():
    m = _random_sparse_hermitian(300, 0.05, 7)
    with pytest.raises(SolverError) as err:
        lowest_eigenpairs(m, 4, max_steps=1, block_size=1)
    assert "residual" in str(err.value)


def test_input_validation():
    m = sp.eye_array(8, format="csr")
    with pytest.raises(DomainError):
        lowest_eigenpairs(m, 0)
    with pytest.raises(DomainError):
        lowest_eigenpairs(m, 9)
    with pytest.raises(DomainError):
        lowest_eigenpairs(np.ones((3, 4)), 1)


def test_reports_iterations_and_residuals():
    m = _random_sparse_hermitian(150, 0.05, 42)
    res = lowest_eigenpairs(m, 2)
    assert res.iterations >= 1
    assert res.residuals.shape == (2,)
    assert np.all(res.residuals >= 0)


def test_real_matrix_is_solved_in_float64():
    # assembled H is stored float64, and the run keeps its dtype
    h = assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(8, boundary="periodic")).tocsr()
    assert h.dtype == np.float64
    want = np.linalg.eigvalsh(h.toarray())[:3]
    res = lowest_eigenpairs(h, 3)
    assert res.eigenvectors.dtype == np.float64
    assert np.abs(res.eigenvalues - want).max() <= 1e-10 * np.abs(want).max()


def test_complex_dm_chain_stays_complex(dm_chain):
    h = dm_chain(8)
    assert h.imag.count_nonzero() > 0
    res = lowest_eigenpairs(h, 4)
    assert res.eigenvectors.dtype == np.complex128
    want = np.linalg.eigvalsh(h.toarray())
    scale = np.abs(want).max()
    assert np.abs(res.eigenvalues - want[:4]).max() <= 1e-10 * scale
    v = res.eigenvectors
    assert np.linalg.norm(h @ v - v * res.eigenvalues, axis=0).max() <= 1e-8 * scale


@pytest.mark.parametrize("case", ["ferromagnet_multiplet", "random_complex"])
def test_thick_restarts_keep_accuracy(case):
    if case == "ferromagnet_multiplet":
        # L=8 ring ferromagnet: the lowest 9 levels are one 9-fold multiplet
        m = assemble_hamiltonian(heisenberg(j=1.0), chain_volume(8, boundary="periodic"))
        m = m.tocsr()
        k = b = 9
    else:
        m = _random_sparse_hermitian(300, 0.05, 5)
        k = b = 4
    # a restart keeps k + 2b vectors, so after the first fill every second
    # step restarts; ten steps past the fill are five restarts
    max_basis = k + 4 * b
    res = lowest_eigenpairs(m, k, block_size=b, max_basis=max_basis)
    assert res.iterations - max_basis // b >= 10
    want = np.linalg.eigvalsh(m.toarray())
    scale = max(1.0, np.abs(want).max())
    assert np.abs(res.eigenvalues - want[:k]).max() <= 1e-10 * scale
    v = res.eigenvectors
    assert np.abs(v.conj().T @ v - np.eye(k)).max() <= 1e-12
    assert np.linalg.norm(m @ v - v * res.eigenvalues, axis=0).max() <= 1e-8 * scale


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_small_max_basis_is_raised_so_restarts_converge(dtype):
    # below k + 3b a thick restart cannot keep its k + 2b vectors and the run
    # restarts on every step; the floor lifts max_basis = 13 to 17 here
    k, b = 5, 4
    for seed in range(6):
        rng = np.random.default_rng(seed)
        m = sp.random_array((400, 400), density=0.03, rng=rng, dtype=np.float64)
        if dtype is np.complex128:
            m = m + 1j * sp.random_array((400, 400), density=0.03, rng=rng, dtype=np.float64)
        m = (m + m.conj().T).tocsr()
        res = lowest_eigenpairs(m, k, block_size=b, max_basis=k + 2 * b)
        want = np.linalg.eigvalsh(m.toarray())
        scale = max(1.0, np.abs(want).max())
        assert np.abs(res.eigenvalues - want[:k]).max() <= 1e-10 * scale
        v = res.eigenvectors
        assert np.linalg.norm(m @ v - v * res.eigenvalues, axis=0).max() <= 1e-8 * scale


def test_each_step_makes_one_ritz_eigh_visible_to_a_tracer(monkeypatch, dm_chain):
    # the Ritz solve is numpy.linalg.eigh, looked up on numpy.linalg, so a
    # tracer that wraps that attribute counts one call per step, restarts
    # included; no step goes through spin_algebra.hermitian_eig
    original = spin_algebra.hermitian_eig
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("spinmodels"):
            if getattr(module, "hermitian_eig", None) is original:
                monkeypatch.setattr(module, "hermitian_eig", lambda *a, **k: pytest.fail(
                    "a Ritz solve went through hermitian_eig"))
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    h = assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(8, boundary="periodic")).tocsr()
    for m, max_basis in ((h, None), (h, 12), (dm_chain(8), 12)):
        calls.clear()
        res = lowest_eigenpairs(m, 3, block_size=2, max_basis=max_basis)
        assert len(calls) == res.iterations > 0
