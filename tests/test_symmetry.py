import numpy as np
import pytest

from spinmodels import (
    DomainError,
    GeneratorSet,
    SitePermutation,
    assemble_hamiltonian,
    basis_vector,
    chain_volume,
    default_probe_set,
    heisenberg,
    aklt,
    invariance_residual,
    permutation_unitary,
    resolve_q,
    state_invariance_residual,
    StateVector,
    suq2_generators,
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


def test_suq2_reduces_to_total_spin_at_q_one():
    vol = chain_volume(4, boundary="open")
    gens = suq2_generators(vol, 1.0)
    plain = total_spin(vol)
    # K3 = total S3 always; at q=1 the twist factors become identities
    assert np.array_equal(np.asarray(gens.generators["K3"].toarray()),
                          np.asarray(plain.generators["S3"].toarray()))
    sp_total = plain.generators["S1"].toarray() + 1j * plain.generators["S2"].toarray()
    assert np.allclose(gens.generators["K+"].toarray(), sp_total, atol=1e-15)


def test_generators_honour_dense_cutoff():
    vol = chain_volume(5, boundary="open")  # dim 32
    for gens in (total_spin(vol, dense_cutoff=16), suq2_generators(vol, 0.5, dense_cutoff=16)):
        assert len(gens.generators) == 3
        assert all(g.is_sparse for _, g in gens)
    for gens in (total_spin(vol, dense_cutoff=32), suq2_generators(vol, 0.5, dense_cutoff=32)):
        assert not any(g.is_sparse for _, g in gens)


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
    vol = chain_volume(4, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol)
    u = permutation_unitary(SitePermutation.translation(vol, 1), vol)
    assert invariance_residual(h, u) == 0.0  # dyadic entries transport exactly
    with pytest.raises(DomainError):
        invariance_residual(h, 2.0 * u.toarray())  # not unitary


def test_state_invariance_under_translation():
    vol = chain_volume(4, boundary="periodic")
    u = permutation_unitary(SitePermutation.translation(vol, 1), vol)
    probes = default_probe_set(vol)
    up = StateVector(basis_vector(vol, (0, 0, 0, 0)))
    assert state_invariance_residual(up, u, probes) < 1e-14
    neel = StateVector(basis_vector(vol, (0, 1, 0, 1)))
    # shifting the staggered pattern flips every on-site magnetization
    assert state_invariance_residual(neel, u, probes) > 0.5


def test_default_probe_set_covers_sites_and_bonds():
    vol = chain_volume(4, boundary="open")
    probes = default_probe_set(vol)
    # three spin components per site plus one exchange term per bond
    assert len(probes) == 3 * 4 + 3
    vol_p = chain_volume(4, boundary="periodic")
    assert len(default_probe_set(vol_p)) == 3 * 4 + 4


def test_generator_set_iterates_labelled_pairs():
    vol = chain_volume(2)
    labels = [label for label, _ in total_spin(vol)]
    assert labels == ["S1", "S2", "S3"]
