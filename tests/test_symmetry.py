import numpy as np
import pytest
import scipy.sparse as sp

from spinmodels import (
    DomainError,
    GeneratorSet,
    assemble_hamiltonian,
    chain_volume,
    embed,
    heisenberg,
    aklt,
    invariance_residual,
    random_local_operator,
    resolve_q,
    suq2_generators,
    spin_matrices,
    total_spin,
    xxz_suq2_chain,
    xy_field,
)


def test_total_spin_commutes_with_heisenberg():
    for length in (2, 4, 6):
        for boundary in ("open", "periodic"):
            vol = chain_volume(length, boundary=boundary)
            h = assemble_hamiltonian(heisenberg(j=1.0), vol)
            gens = total_spin(vol)
            assert set(gens.generators) == {"S1", "S2", "S3"}
            assert invariance_residual(h, gens) < 1e-12


def test_total_spin_commutes_with_aklt():
    vol = chain_volume(4, local_dim=3, boundary="periodic")
    h = assemble_hamiltonian(aklt(), vol)
    assert invariance_residual(h, total_spin(vol)) < 1e-12


def test_field_breaks_transverse_generators():
    vol = chain_volume(4)
    h = assemble_hamiltonian(xy_field(h=0.5), vol)
    gens = total_spin(vol)
    g = gens.generators
    # S3 stays conserved, S1 and S2 do not
    assert invariance_residual(h, GeneratorSet("s3", {"S3": g["S3"]})) < 1e-12
    assert invariance_residual(h, GeneratorSet("s1", {"S1": g["S1"]})) > 0.1


def test_suq2_generators_annihilate_commutators():
    for length, q in ((3, 0.3), (4, 0.5), (5, 0.9), (4, 1.0)):
        vol = chain_volume(length, boundary="open")
        h = xxz_suq2_chain(length, q)
        gens = suq2_generators(vol, q)
        assert set(gens.generators) == {"K3", "K+", "K-"}
        assert invariance_residual(h, gens) < 1e-10


def _deformed_ladder_oracle(length, q, local, string, left):
    """sum_x of the dense kron chain with ``local`` at x and ``string`` on the
    sites left (K+) or right (K-) of x, the identity elsewhere."""
    total = 0
    for x in range(length):
        factors = [string if (y < x if left else y > x) else np.eye(2) for y in range(length)]
        factors[x] = local
        term = np.ones((1, 1))
        for f in factors:
            term = np.kron(term, f)
        total = total + term
    return total


@pytest.mark.parametrize("q", [0.35, 0.8])
def test_suq2_generators_match_dense_kron_chains(q):
    ops = spin_matrices(0.5)
    t = np.diag([1.0 / q, q])
    for length in range(2, 7):
        vol = chain_volume(length, boundary="open")
        gset = suq2_generators(vol, q)
        gens = gset.generators
        want = {"K+": _deformed_ladder_oracle(length, q, ops.sp, t, left=True),
                "K-": _deformed_ladder_oracle(length, q, ops.sm, np.linalg.inv(t), left=False),
                "K3": sum(embed(ops.s3, [(x,)], vol).toarray() for x in range(length))}
        for name, dense in want.items():
            assert sp.issparse(gens[name])
            assert np.max(np.abs(gens[name].toarray() - dense)) < 1e-14 * np.max(np.abs(dense))
        assert invariance_residual(xxz_suq2_chain(length, q), gset) < 1e-12


def test_suq2_reduces_to_total_spin_at_q_one():
    vol = chain_volume(4, boundary="open")
    gens = suq2_generators(vol, 1.0)
    plain = total_spin(vol)
    # K3 = total S3 always; at q=1 the twist factors become identities
    assert np.array_equal(np.asarray(gens.generators["K3"].toarray()),
                          np.asarray(plain.generators["S3"].toarray()))
    sp_total = plain.generators["S1"].toarray() + 1j * plain.generators["S2"].toarray()
    assert np.allclose(gens.generators["K+"].toarray(), sp_total, atol=1e-15)


@pytest.mark.parametrize("length", [4, 10], ids=["dim16", "dim1024"])
def test_local_builders_return_csr(length):
    # everything built from local terms is CSR at every size, with at most
    # dim * n^k stored entries per k-site term; real data stays float64, and
    # the random probes and S2 are complex128
    vol = chain_volume(length, boundary="open")
    dim, n = vol.hilbert_dim, vol.local_dim
    ops = spin_matrices(0.5)
    real, cplx = np.float64, np.complex128
    built = [
        (embed(ops.s1, [(1,)], vol), dim * n, real),
        (embed(np.kron(ops.s3, ops.sp), [(0,), (length - 1,)], vol), dim * n**2, real),
        (assemble_hamiltonian(heisenberg(j=-1.0), vol), len(vol.edges) * dim * n**2, real),
        (random_local_operator(vol, 5, num_sites=1), dim * n, cplx),
        (random_local_operator(vol, 5, num_sites=2), dim * n**2, cplx),
    ]
    for gens in (total_spin(vol), suq2_generators(vol, 0.5)):
        assert len(gens.generators) == 3
        built += [(g, length * dim * n, cplx if label == "S2" else real) for label, g in gens]
    for op, max_nnz, dtype in built:
        assert sp.issparse(op) and op.format == "csr" and op.dtype == dtype
        assert op.shape == (dim, dim) and op.nnz <= max_nnz


def test_suq2_domain_checks():
    vol = chain_volume(4, boundary="open")
    for bad_q in (0.0, -0.3, 1.2):
        with pytest.raises(DomainError):
            suq2_generators(vol, bad_q)
    with pytest.raises(DomainError):
        suq2_generators(chain_volume(4, boundary="periodic"), 0.5)
    with pytest.raises(DomainError):
        suq2_generators(chain_volume(3, local_dim=3), 0.5)


def test_invariance_residual_with_unitary():
    # a bare operator, unitary or not, is refused: only a GeneratorSet is checked
    vol = chain_volume(4, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol)
    for bad in (sp.eye_array(16, format="csr"), np.eye(16), total_spin(vol).generators["S3"]):
        with pytest.raises(DomainError):
            invariance_residual(h, bad)
    assert invariance_residual(h, total_spin(vol)) < 1e-12


def test_generator_set_iterates_labelled_pairs():
    vol = chain_volume(2)
    labels = [label for label, _ in total_spin(vol)]
    assert labels == ["S1", "S2", "S3"]


@pytest.mark.parametrize("spin", [0.5, 1, 1.5])
def test_spin_matrices_and_total_spin_keep_real_components_real(spin):
    # in the decreasing-S3 basis only S2 has imaginary entries; S.S on one
    # site and on two is written with S+- and stays real
    ops = spin_matrices(spin)
    for m in (ops.s1, ops.s3, ops.sp, ops.sm, ops.identity, ops.casimir(), ops.exchange()):
        assert m.dtype == np.float64
    assert ops.s2.dtype == np.complex128
    vol = chain_volume(3, boundary="open", local_dim=ops.dim)
    gens = total_spin(vol).generators
    assert [gens[label].dtype for label in ("S1", "S2", "S3")] == [
        np.float64, np.complex128, np.float64]
