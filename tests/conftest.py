import numpy as np
import pytest
import scipy.sparse as sp

from spinmodels import Interaction, Mixture, assemble_hamiltonian, chain_volume, spin_matrices
from spinmodels.spin_algebra import eigenvector_columns


@pytest.fixture
def forbid_full_toarray(monkeypatch):
    """Call with a dimension: from then on, densifying a dim x dim scipy
    sparse array (coo, csr or csc) raises AssertionError."""

    def install(dim):
        for cls in (sp.coo_array, sp.csr_array, sp.csc_array):
            def guarded(self, *args, _original=cls.toarray, **kwargs):
                if self.shape == (dim, dim):
                    raise AssertionError(f"densified a full {dim} x {dim} sparse matrix")
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "toarray", guarded)

    return install


@pytest.fixture
def eigen_residuals():
    """Oracle: the residual norms ||H v - w v|| of an EigenSystem's pairs,
    from its eigenvectors scattered into dense columns."""

    def residuals(es):
        v = eigenvector_columns(es)
        return np.linalg.norm(es.h @ v - v * es.eigenvalues, axis=0)

    return residuals


@pytest.fixture
def dense_state():
    """Oracle: the dense dim x dim rho of a Mixture, sum_i w_i v_i v_i^H, or
    of a BlockDensity, its blocks scattered into zeros."""

    def dense(state):
        if isinstance(state, Mixture):
            return (state.vectors * state.weights) @ state.vectors.conj().T
        rho = np.zeros((state.dim, state.dim), state.data.dtype)
        for idx, r in state.blocks:
            rho[np.ix_(idx, idx)] = r if r.ndim == 2 else np.diag(r)
        return rho

    return dense


@pytest.fixture
def dense_trace(dense_state):
    """Oracle: Tr(A rho) = sum_jk A_jk rho_kj on a state's ``dense_state``,
    for a dense or sparse A."""

    def trace(state, a):
        a = a.toarray() if sp.issparse(a) else np.asarray(a)
        return complex(np.sum(a * dense_state(state).T))

    return trace


@pytest.fixture
def dense_stability(dense_trace):
    """Oracle: the stability value Tr(A* [H, A] rho), real part, from the
    dense operator products."""

    def value(h, state, a):
        h, a = (m.toarray() if sp.issparse(m) else np.asarray(m) for m in (h, a))
        return dense_trace(state, a.conj().T @ (h @ a - a @ h)).real

    return value


@pytest.fixture
def dm_chain():
    """Builder of a spin-1/2 ring: ferromagnetic Heisenberg exchange plus a
    z-axis Dzyaloshinskii-Moriya term d (S1 S2 - S2 S1) on every bond, a
    Hermitian CSR matrix with a nonzero imaginary part."""

    def build(length, d=0.7):
        ops = spin_matrices(0.5)
        bond = -sum(np.kron(a, a) for a in ops.vector())
        bond = bond + d * (np.kron(ops.s1, ops.s2) - np.kron(ops.s2, ops.s1))
        chain = Interaction(local_dim=2, bond_term=bond, name="dm")
        return assemble_hamiltonian(chain, chain_volume(length, boundary="periodic")).tocsr()

    return build
