"""Spectral analysis: full spectra, ground spaces, gaps, correlations."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spinmodels import (
    DimensionMismatchError,
    DomainError,
    EigenSystem,
    Interaction,
    ResourceCapError,
    SolverError,
    assemble_hamiltonian,
    basis_index,
    build_model_hamiltonian,
    chain_volume,
    cli,
    embed,
    expectation,
    full_spectrum,
    gibbs,
    ground_space,
    heisenberg,
    ising,
    kms_terms,
    low_levels,
    maximally_mixed,
    pure,
    spectra,
    spectral_gap,
    spin_matrices,
    stability_value,
    structure_factor,
    two_point,
)
from spinmodels.cli import parse_spec_dict, run_spec
from spinmodels.interactions import MODEL_NAMES, MODELS, su2_spin, xxz_suq2, xy_field
from spinmodels.krylov import lowest_eigenpairs
from spinmodels.spectra import DEGENERACY_TOL
from spinmodels.spin_algebra import (
    _block_plan,
    eigenvector_columns,
    hermitian_eig,
)


def test_full_spectrum_matches_numpy(eigen_residuals):
    rng = np.random.default_rng(15)
    for _ in range(5):
        m = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        m = m + m.conj().T
        sol = full_spectrum(m)
        w = np.linalg.eigvalsh(m)
        assert np.allclose(sol.eigenvalues, w, atol=1e-12)
        # columns diagonalize m
        v = eigenvector_columns(sol)
        d = v.conj().T @ m @ v
        assert np.allclose(d, np.diag(sol.eigenvalues), atol=1e-11)
        assert np.max(eigen_residuals(sol)) < 1e-12 * max(1.0, np.max(np.abs(w)))


def _custom_chain(site_term, bond_term, length=6):
    vol = chain_volume(length, "open")
    return assemble_hamiltonian(Interaction(2, site_term, bond_term), vol)


_S = spin_matrices(0.5)

# (Hamiltonian, number of invariant blocks of its nonzero pattern)
BLOCK_ORACLE_CASES = {
    # the built-in models conserve total S3; each magnetization sector is one block
    "heisenberg": (lambda: build_model_hamiltonian(
        "heisenberg", {"J": -1.0}, chain_volume(8, "periodic")), 9),
    "xy_field": (lambda: build_model_hamiltonian(
        "xy_field", {"h": 0.3}, chain_volume(8, "periodic")), 9),
    "ising": (lambda: build_model_hamiltonian(
        "ising", {"h": 0.3}, chain_volume(8, "periodic")), 256),
    "aklt": (lambda: build_model_hamiltonian(
        "aklt", {}, chain_volume(5, "periodic", local_dim=3)), 11),
    "xxz_suq2": (lambda: build_model_hamiltonian(
        "xxz_suq2", {"q": 0.5}, chain_volume(8, "open")), 9),
    # a transverse field connects every product state: one block
    "transverse_ising": (lambda: _custom_chain(
        -0.7 * _S.s1, -np.kron(_S.s3, _S.s3)), 1),
    # z-axis Dzyaloshinskii-Moriya bond: purely imaginary, still conserves S3
    "dm_bond": (lambda: _custom_chain(
        -0.3 * _S.s3, np.kron(_S.s1, _S.s2) - np.kron(_S.s2, _S.s1)), 7),
}


@pytest.mark.parametrize("name", sorted(BLOCK_ORACLE_CASES))
def test_eigen_system_blocks_match_full_complex_eigh(name, eigen_residuals):
    build, num_blocks = BLOCK_ORACLE_CASES[name]
    h = build()
    hd = np.asarray(h.toarray(), dtype=complex)
    es = EigenSystem(h)
    w_full = np.linalg.eigh(hd)[0]
    scale = max(1.0, float(np.max(np.abs(w_full))))
    assert es.plan.labels.max() + 1 == num_blocks and es.plan.labels.size == hd.shape[0]
    assert np.max(np.abs(es.eigenvalues - w_full)) < 1e-12 * scale
    assert np.max(eigen_residuals(es)) < 1e-12 * scale
    v = eigenvector_columns(es)
    assert np.max(np.abs(v.conj().T @ v - np.eye(hd.shape[0]))) < 1e-12
    assert (v.dtype == np.float64) == (not np.any(hd.imag))


def test_full_spectrum_rejects_non_hermitian():
    with pytest.raises(DomainError):
        full_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_system_is_shared_by_the_spectral_views():
    vol = chain_volume(6, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol)
    es = EigenSystem(h)
    assert full_spectrum(es) is es
    assert np.array_equal(full_spectrum(h).eigenvalues, es.eigenvalues)
    gs = ground_space(es)
    assert gs.energy == es.eigenvalues[0]
    low = low_levels(es)
    assert low.method == "dense"
    assert np.array_equal(low.eigenvalues, es.eigenvalues)
    assert (low.degeneracy, low.gap) == (gs.degeneracy, spectral_gap(es))
    # a bare H takes the eigenvalue-only route, another LAPACK driver
    scale = 1e-13 * max(1.0, float(np.max(np.abs(es.eigenvalues))))
    assert abs(ground_space(h).energy - gs.energy) <= scale
    assert abs(spectral_gap(h) - spectral_gap(es)) <= scale
    assert ground_space(h).degeneracy == gs.degeneracy


# ---------------------------------------------------------------------------
# The eigenvalue-only dense route against the EigenSystem route
# ---------------------------------------------------------------------------

# every MODELS record, the field models with and without the field that
# breaks the spin flip, at L=8 (L=5 for spin 1), open and periodic
_EIGENVALUE_RECORDS = [("heisenberg", {"J": 1.0}), ("heisenberg", {"J": -1.0}),
                       ("xy_field", {"h": 0.0}), ("xy_field", {"h": 0.3}),
                       ("ising", {"h": 0.0}), ("ising", {"h": 0.4}), ("aklt", {}),
                       ("xxz_suq2", {"q": 0.5})]
_EIGENVALUE_CASES = [(name, params, boundary) for name, params in _EIGENVALUE_RECORDS
                     for boundary in ("open", "periodic")
                     if boundary == "open" or not MODELS[name].open_chain_only]
_EIGENVALUE_IDS = [f"{n}-{'-'.join(map(str, p.values()))}-{b}" for n, p, b in _EIGENVALUE_CASES]


def _record_volume(name, params, boundary):
    local_dim = MODELS[name].interaction(params).local_dim
    return chain_volume(5 if local_dim > 2 else 8, boundary, local_dim=local_dim)


@pytest.mark.parametrize("name, params, boundary", _EIGENVALUE_CASES, ids=_EIGENVALUE_IDS)
def test_eigenvalue_route_matches_the_eigen_system_route(name, params, boundary):
    # the same blocks through eigvalsh instead of eigh; the ground basis,
    # solved on first read from the ground blocks alone, bit for bit
    assert {n for n, _ in _EIGENVALUE_RECORDS} == set(MODELS)
    h = build_model_hamiltonian(name, params, _record_volume(name, params, boundary))
    want = low_levels(EigenSystem(h))
    got = low_levels(h, method="dense")
    scale = 1e-13 * max(1.0, float(np.max(np.abs(want.eigenvalues))))
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= scale
    assert (got.degeneracy, got.block_sizes, got.flip) == (want.degeneracy, want.block_sizes,
                                                           want.flip)
    assert abs(got.gap - want.gap) <= scale
    assert got.basis.dtype == want.basis.dtype
    assert np.array_equal(got.basis, want.basis)


@pytest.mark.parametrize("name, params, boundary", _EIGENVALUE_CASES, ids=_EIGENVALUE_IDS)
def test_thermal_sums_match_gibbs_and_expectation(tmp_path, name, params, boundary):
    # the thermal task's log Z and E from the eigenvalues alone against a
    # block-stored Gibbs state and Tr(H rho); above --cap-dense thermal exits
    # 3 (test_cap_dense_reaches_every_task)
    vol = _record_volume(name, params, boundary)
    doc = {"schema_version": 1, "task": "thermal", "model": {"name": name, "params": params},
           "volume": {"dims": list(vol.dims), "boundary": boundary},
           "thermal": {"betas": [0.0, 0.5, 2.0, 10.0]}}
    points = json.loads(run_spec(parse_spec_dict(doc), tmp_path).read_text())["payload"]["points"]
    h = build_model_hamiltonian(name, params, vol)
    es = EigenSystem(h)
    assert [p["beta"] for p in points] == [0.0, 0.5, 2.0, 10.0]
    for point in points:
        state = gibbs(es, point["beta"])
        energy = expectation(state.rho, h).real
        assert abs(point["log_z"] - state.log_z) <= 1e-13 * max(1.0, abs(state.log_z))
        assert abs(point["energy"] - energy) <= 1e-13 * max(1.0, abs(energy))


def test_eigen_system_cap_is_an_argument():
    h = assemble_hamiltonian(heisenberg(j=1.0), chain_volume(5))
    with pytest.raises(ResourceCapError):
        EigenSystem(h, cap_dense=16)
    with pytest.raises(ResourceCapError):
        low_levels(h, method="dense", cap_dense=16)
    # without an explicit method a small cap selects block Lanczos
    assert low_levels(h, cap_dense=16).method == "krylov"


def test_low_levels_krylov_lists_requested_levels():
    vol = chain_volume(8, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol)
    w = np.linalg.eigvalsh(h.toarray())
    low = low_levels(h.tocsr(), 10, method="krylov")
    assert low.eigenvalues.shape == (10,)
    assert np.allclose(low.eigenvalues, w[:10], atol=1e-8)
    assert low.degeneracy == 1
    assert abs(low.gap - (w[1] - w[0])) < 1e-8


def test_krylov_route_runs_real_only_on_real_input(monkeypatch, dm_chain):
    # the krylov route reads its window scale from its own Lanczos run and
    # calls no ARPACK; the Lanczos basis is float64 exactly for real input
    seen = []
    eigsh = spla.eigsh

    def recording(m, *args, **kwargs):
        seen.append(m.dtype)
        return eigsh(m, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", recording)
    real = assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(8, boundary="periodic"))
    for h, dtype in ((real, np.float64), (dm_chain(8), np.complex128)):
        seen.clear()
        low = low_levels(h, 4, method="krylov")
        assert seen == []
        assert low.basis.dtype == dtype
        w = np.linalg.eigvalsh(h.toarray())
        assert np.abs(low.eigenvalues - w[:4]).max() <= 1e-10 * np.abs(w).max()
        assert low.iterations >= 1
        assert 0.0 <= low.max_residual <= 1e-10 * np.abs(w).max()


# Fields for xy_field and ising, q for xxz_suq2.  The ground levels of the
# heisenberg ferromagnet and xxz_suq2 (9-fold) and aklt (4-fold) are multiplets.
_MODEL_PARAMS = {"xy_field": {"h": 0.3}, "ising": {"h": 0.4}, "xxz_suq2": {"q": 0.5}}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_krylov_dense_and_arpack_agree_on_every_model(name):
    params = _MODEL_PARAMS.get(name, {})
    local_dim = MODELS[name].interaction(params).local_dim
    length = 6 if local_dim > 2 else 8
    h = build_model_hamiltonian(name, params, chain_volume(length, "open", local_dim=local_dim))
    dense = low_levels(EigenSystem(h))
    krylov = low_levels(h, 6, method="krylov")
    w = dense.eigenvalues
    scale = max(1.0, np.abs(w).max())
    n = krylov.eigenvalues.size
    assert np.abs(krylov.eigenvalues - w[:n]).max() <= 1e-10 * scale
    assert abs(krylov.gap - dense.gap) <= 1e-10 * scale
    # ARPACK is single-vector Lanczos: a Krylov space as large as the matrix
    # lets its invariant-subspace restarts reach every copy of a multiplet
    m = h.tocsr()
    k = dense.degeneracy + 2
    v0 = np.random.default_rng(0).standard_normal(m.shape[0])
    arpack = np.sort(spla.eigsh(m, k=k, which="SA", ncv=m.shape[0], v0=v0, tol=1e-12,
                                return_eigenvectors=False))
    assert np.abs(arpack - w[:k]).max() <= 1e-10 * scale
    window = w[0] + DEGENERACY_TOL * scale
    assert krylov.degeneracy == dense.degeneracy == int(np.sum(arpack <= window))


def test_ground_space_ferromagnet_multiplet():
    # ring ferromagnet: ground multiplet has total spin L/2, dimension L+1
    for length in (4, 6):
        vol = chain_volume(length, boundary="periodic")
        h = assemble_hamiltonian(heisenberg(j=1.0), vol)
        gs = ground_space(h)
        assert gs.degeneracy == length + 1
        assert gs.basis.shape == (vol.hilbert_dim, length + 1)
        # orthonormal basis of eigenvectors at the bottom of the spectrum
        overlap = gs.basis.conj().T @ gs.basis
        assert np.allclose(overlap, np.eye(length + 1), atol=1e-10)


def test_ground_space_krylov_matches_dense():
    vol = chain_volume(8, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=1.0), vol)
    dense = ground_space(h, method="dense")
    sparse = ground_space(h.tocsr(), method="krylov")
    assert dense.degeneracy == sparse.degeneracy == 9
    assert abs(dense.energy - sparse.energy) < 1e-10


def test_spectral_gap_afm_chain():
    vol = chain_volume(8, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol)
    w = np.linalg.eigvalsh(h.toarray())
    want = w[1] - w[0]  # unique singlet ground state
    assert abs(spectral_gap(h, method="dense") - want) < 1e-10
    assert abs(spectral_gap(h.tocsr(), method="krylov") - want) < 1e-8


def test_spectral_gap_with_synthetic_window():
    # two states inside the degeneracy window count as one level
    m = np.diag([0.0, 5e-9, 1.0, 2.0])
    gs = ground_space(m)
    assert gs.degeneracy == 2
    assert abs(spectral_gap(m) - 1.0) < 1e-12
    # flat spectrum has no level above the window
    flat = np.zeros((4, 4))
    assert spectral_gap(flat) == 0.0


def test_sparse_degeneracy_cap():
    # every eigenvalue of the identity is in the ground window; the sparse
    # certification loop must refuse instead of looping forever
    m = sp.eye_array(200, format="csr")
    with pytest.raises(SolverError):
        ground_space(m, method="krylov")


# ---------------------------------------------------------------------------
# The krylov route, one Lanczos run per invariant block
# ---------------------------------------------------------------------------


@pytest.fixture
def lanczos_runs(monkeypatch):
    """(block size, k) of each Lanczos run that low_levels makes, in order."""
    log = []

    def counted(h, k, *args, _solve=spectra.lowest_eigenpairs, **kwargs):
        log.append((h.shape[0], k))
        return _solve(h, k, *args, **kwargs)

    monkeypatch.setattr(spectra, "lowest_eigenpairs", counted)
    return log


def _check_ground_basis(low, h, scale):
    v = low.basis
    assert v.shape == (h.shape[0], low.degeneracy)
    assert np.abs(v.conj().T @ v - np.eye(low.degeneracy)).max() <= 1e-10
    assert np.linalg.norm(h @ v - low.energy * v, axis=0).max() <= 1e-10 * scale


_RECORDS = [(name, boundary) for name in MODEL_NAMES for boundary in ("open", "periodic")
            if boundary == "open" or not MODELS[name].open_chain_only]


@pytest.mark.parametrize("name, boundary", _RECORDS, ids=[f"{n}-{b}" for n, b in _RECORDS])
def test_sectored_krylov_route_matches_dense_and_unsectored_lanczos(name, boundary):
    # the sectored route against the dense route and one Lanczos run on the
    # whole matrix, block as wide as the ground multiplet and one level more
    params = _MODEL_PARAMS.get(name, {})
    local_dim = MODELS[name].interaction(params).local_dim
    vol = chain_volume(6 if local_dim > 2 else 8, boundary, local_dim=local_dim)
    h = build_model_hamiltonian(name, params, vol)
    dense = low_levels(EigenSystem(h))
    krylov = low_levels(h, 6, method="krylov")
    k = max(6, dense.degeneracy + 1)
    whole = lowest_eigenpairs(h, k, block_size=k).eigenvalues
    w = dense.eigenvalues
    scale = max(1.0, np.abs(w).max())
    n = krylov.eigenvalues.size
    assert n == 6
    assert np.abs(krylov.eigenvalues - w[:n]).max() <= 1e-10 * scale
    assert np.abs(krylov.eigenvalues - whole[:n]).max() <= 1e-10 * scale
    window = whole[0] + DEGENERACY_TOL * scale
    assert krylov.degeneracy == dense.degeneracy == int(np.sum(whole <= window))
    deg = krylov.degeneracy
    assert abs(krylov.gap - dense.gap) <= 1e-10 * scale
    assert abs(krylov.gap - (whole[deg] - whole[0])) <= 1e-10 * scale
    _check_ground_basis(krylov, h, scale)


def test_single_state_edge_sectors_join_the_ground_multiplet():
    # the 13-fold SU_q(2) multiplet has one state in each S3 sector; the two
    # size-1 edge sectors sit at E0 only up to rounding
    h = build_model_hamiltonian("xxz_suq2", {"q": 0.5}, chain_volume(12, "open"))
    low = low_levels(h, 6, method="krylov")
    assert low.degeneracy == 13
    _check_ground_basis(low, h, max(1.0, abs(low.energy)))


def test_ferromagnet_ring_makes_one_run_per_flip_pair(lanczos_runs):
    # L=12: sectors 1, 12, 66, 220, 495, 792, 924, 792, ..., 1; every
    # Gershgorin bound is E0, so each +-m pair is solved once and the two
    # size-1 sectors are read from the diagonal
    h = build_model_hamiltonian("heisenberg", {"J": 1.0}, chain_volume(12, "periodic"))
    low = low_levels(h, 6, method="krylov")
    assert [d for d, _ in lanczos_runs] == [12, 66, 220, 495, 792, 924]
    assert low.solved_blocks == [d for d, _ in lanczos_runs]
    assert low.degeneracy == 13 and abs(low.energy + 3.0) <= 1e-12
    assert abs(low.gap - (1.0 - np.cos(np.pi / 6))) <= 1e-10  # one magnon at k = 2 pi / 12
    _check_ground_basis(low, h, 3.0)


def test_gershgorin_bounds_skip_sectors(lanczos_runs):
    # the plan route (no spin given) on the spectrum_krylov bench H, the L=13
    # antiferromagnet ring, which the CLI now solves on its SU(2) route: the
    # m = 1/2 and m = 3/2 sectors are solved, their mirrors copied, and every
    # other sector's bound lies above the sixth level
    h = build_model_hamiltonian("heisenberg", {"J": -1.0}, chain_volume(13, "periodic"))
    low = low_levels(h, 6, method="krylov")
    assert low.solved_blocks == [d for d, _ in lanczos_runs] == [1716, 1287]
    assert low.degeneracy == 4 and low.iterations >= 2
    _check_ground_basis(low, h, abs(low.energy))


def test_a_diagonal_hamiltonian_makes_no_lanczos_run(lanczos_runs):
    h = build_model_hamiltonian("ising", {"h": 0.0}, chain_volume(10, "periodic"))
    low = low_levels(h, 6, method="krylov")
    dense = low_levels(EigenSystem(h))
    assert lanczos_runs == [] and low.solved_blocks == []
    assert (low.iterations, low.max_residual) == (0, 0.0)
    assert np.array_equal(low.eigenvalues, dense.eigenvalues[:6])
    assert (low.degeneracy, low.gap) == (dense.degeneracy, dense.gap)
    _check_ground_basis(low, h, abs(low.energy))


# ---------------------------------------------------------------------------
# The SU(2) route: one Lanczos run on the lowest S3 sector, levels counted
# 2S+1 times from their Casimir
# ---------------------------------------------------------------------------


def _chain(name, params, length, boundary):
    """(H, local spin certificate) of a registry model on a chain."""
    interaction = MODELS[name].interaction(params)
    vol = chain_volume(length, boundary, local_dim=interaction.local_dim)
    return assemble_hamiltonian(interaction, vol), su2_spin(interaction)


def _su2(name, params, length, boundary, num=6):
    h, spin = _chain(name, params, length, boundary)
    low = low_levels(h, num, method="krylov", spin=spin)
    assert low.route == "su2_sector" and low.spins.size == low.eigenvalues.size
    return h, low


_SU2_RECORDS = [(name, params, boundary)
                for name, params in (("heisenberg", {"J": -1.0}), ("heisenberg", {"J": 1.0}),
                                     ("heisenberg", {"J": -1.0, "spin": 1}), ("aklt", {}))
                for boundary in ("open", "periodic")]


@pytest.mark.parametrize("name, params, boundary", _SU2_RECORDS,
                         ids=[f"{n}-{p}-{b}" for n, p, b in _SU2_RECORDS])
def test_su2_route_matches_dense_and_counts_the_whole_space(lanczos_runs, name, params, boundary):
    h, spin = _chain(name, params, 6 if params.get("spin") or name == "aklt" else 10, boundary)
    low = low_levels(h, 6, method="krylov", spin=spin)
    assert low.route == "su2_sector"
    dense = low_levels(h, method="dense")
    scale = max(1.0, np.abs(dense.eigenvalues).max())
    assert np.abs(low.eigenvalues - dense.eigenvalues[:6]).max() <= 1e-10 * scale
    assert low.degeneracy == dense.degeneracy and abs(low.gap - dense.gap) <= 1e-10 * scale
    sector = lanczos_runs[0][0]
    assert low.solved_blocks == [d for d, _ in lanczos_runs] == [sector] * len(lanczos_runs)
    _check_ground_basis(low, h, scale)
    # k equal to the sector size: every level, each 2S+1 times, is the whole spectrum
    full = low_levels(h, h.shape[0], method="krylov", spin=spin)
    assert full.solved_blocks == [sector] and full.eigenvalues.size == h.shape[0]
    assert np.abs(full.eigenvalues - dense.eigenvalues).max() <= 1e-10 * scale
    values, counts = np.unique(full.spins, return_counts=True)
    assert np.all(counts % (2 * values + 1) == 0)


@pytest.mark.parametrize("spin, length, boundary", [
    (0.5, 6, "periodic"), (0.5, 10, "periodic"), (0.5, 8, "open"), (0.5, 7, "open"),
    (0.5, 9, "open"), (1, 4, "periodic"), (1, 6, "open"), (1, 5, "open")])
def test_lieb_mattis_ground_spin(spin, length, boundary):
    # E. Lieb and D. Mattis, J. Math. Phys. 3, 749 (1962): S.S couplings that
    # are antiferromagnetic between the sublattices A and B of a connected
    # bipartite lattice (even rings, open chains) give a unique ground
    # multiplet of S = |S_A - S_B| = spin * |N_A - N_B|
    _, low = _su2("heisenberg", {"J": -1.0, "spin": spin}, length, boundary)
    ground = spin * (length % 2)
    assert low.spins[0] == ground and low.degeneracy == 2 * ground + 1


@pytest.mark.parametrize("spin, length, boundary", [
    (0.5, 10, "periodic"), (0.5, 9, "open"), (1, 6, "periodic")])
def test_ferromagnet_ground_spin_is_maximal(spin, length, boundary):
    _, low = _su2("heisenberg", {"J": 1.0, "spin": spin}, length, boundary)
    assert low.spins[0] == length * spin and low.degeneracy == 2 * length * spin + 1


def test_aklt_edge_spins_and_ring_gap_level():
    # the open chain's four zero-energy states are S=0 + S=1 (two spin-1/2
    # edges), split by the Gram of S+ V; the ring's gap level is a triplet
    _, chain = _su2("aklt", {}, 7, "open")
    assert chain.degeneracy == 4 and sorted(chain.spins[:4]) == [0, 1, 1, 1]
    assert abs(chain.energy) <= 1e-12
    _, ring = _su2("aklt", {}, 7, "periodic")
    assert ring.degeneracy == 1 and ring.spins[0] == 0
    assert ring.spins[1:4].tolist() == [1, 1, 1]


@pytest.mark.parametrize("name, params, length, num", [
    ("aklt", {}, 4, 1), ("aklt", {}, 4, 6), ("heisenberg", {"J": -1.0}, 8, 40)])
def test_a_run_short_of_its_sector_leaves_its_cut_top_cluster_unreported(
        lanczos_runs, name, params, length, num):
    # each run's last Ritz values split a degenerate cluster, whose Casimir
    # labels are then not integers; that cluster lies above the levels the
    # invariant needs, so it goes unreported and one run on sector m0 does
    h, low = _su2(name, params, length, "periodic", num)
    dense = low_levels(h, method="dense")
    scale = max(1.0, np.abs(dense.eigenvalues).max())
    assert low.solved_blocks == [d for d, _ in lanczos_runs] == [lanczos_runs[0][0]]
    assert lanczos_runs[0][1] < lanczos_runs[0][0]
    assert np.abs(low.eigenvalues - dense.eigenvalues[:num]).max() <= 1e-10 * scale
    assert low.degeneracy == dense.degeneracy and abs(low.gap - dense.gap) <= 1e-10 * scale


def _all_to_all(spin, length, seed=None):
    """sum_{i<j} J_ij S_i.S_j, SU(2) with no lattice: J_ij seeded uniform in
    [-1, 1], or all 1 without a seed."""
    ops, rng = spin_matrices(spin), np.random.default_rng(seed)
    vol = chain_volume(length, "open", local_dim=ops.dim)
    return sum((1.0 if seed is None else rng.uniform(-1.0, 1.0))
               * embed(ops.exchange(), [(i,), (j,)], vol)
               for i in range(length) for j in range(i + 1, length))


def test_a_run_with_no_level_below_its_cut_top_cluster_repeats_with_twice_the_pairs(lanczos_runs):
    # sum_{i<j} S_i.S_j = (S^2 - 6) / 2 on 8 spins 1/2: sector m0 holds 14
    # singlets, then 28 triplets and 20 quintets. The runs of 6 and 12
    # pairs are one cut cluster of singlets and report nothing; the run of
    # 24 reports the singlets alone, one short of max(num, deg + 1) = 15
    h = _all_to_all(0.5, 8)
    low = low_levels(h, 1, method="krylov", spin=0.5)
    dense = low_levels(h, method="dense")
    assert lanczos_runs == [(70, 6), (70, 12), (70, 24), (70, 48)]
    assert low.route == "su2_sector" and low.solved_blocks == [70] * 4
    assert low.degeneracy == dense.degeneracy == 14 and low.spins.tolist() == [0.0]
    assert abs(low.energy + 3.0) <= 1e-12 and abs(low.gap - dense.gap) <= 1e-10
    _check_ground_basis(low, h, 6.0)


@pytest.mark.parametrize("spin, length, seed", [(0.5, 8, 0), (0.5, 8, 1), (1, 5, 2)])
def test_random_all_to_all_su2_hamiltonians_take_the_one_sector_route(spin, length, seed):
    h = _all_to_all(spin, length, seed)
    dense = low_levels(h, method="dense")
    w, scale = dense.eigenvalues, max(1.0, np.abs(dense.eigenvalues).max())
    full = low_levels(h, h.shape[0], method="krylov", spin=spin)
    assert full.route == "su2_sector" and np.abs(full.eigenvalues - w).max() <= 1e-10 * scale
    values, counts = np.unique(full.spins, return_counts=True)
    assert np.all(counts % (2 * values + 1) == 0)
    for num in range(1, 40, 2):
        low = low_levels(h, num, method="krylov", spin=spin)
        assert low.route == "su2_sector", num
        assert np.abs(low.eigenvalues - w[:num]).max() <= 1e-10 * scale
        assert np.array_equal(low.spins, full.spins[:num])
        assert low.degeneracy == dense.degeneracy and abs(low.gap - dense.gap) <= 1e-10 * scale


@pytest.mark.parametrize("num", [0, -3, 1.5, 2.0, "3", True, None])
@pytest.mark.parametrize("method", ["dense", "krylov"])
def test_num_must_be_a_positive_integer(method, num):
    h, spin = _chain("heisenberg", {"J": -1.0}, 6, "periodic")
    for given in (None, spin):
        with pytest.raises(DomainError, match="num must be an integer"):
            low_levels(h, num, method=method, spin=given)
    assert low_levels(h, np.int64(3), method=method).eigenvalues.size >= 3


@pytest.mark.parametrize("interaction", [
    xy_field(0.3), xy_field(0.0), xxz_suq2(0.5),
    Interaction(2, site_term=-0.3 * spin_matrices(0.5).s3, bond_term=heisenberg(-1.0).bond_term)],
    ids=["xy_field", "xy_field-h0", "xxz_suq2", "heisenberg-field"])
def test_models_without_su2_take_the_plan_route_unchanged(interaction):
    assert su2_spin(interaction) is None
    h = assemble_hamiltonian(interaction, chain_volume(8, "open"))
    plain = low_levels(h, 6, method="krylov")
    given = low_levels(h, 6, method="krylov", spin=su2_spin(interaction))
    for key in ("eigenvalues", "degeneracy", "gap", "iterations", "max_residual",
                "solved_blocks", "route", "spins"):
        assert np.array_equal(getattr(given, key), getattr(plain, key)), key
    assert plain.route == "sectors" and plain.spins is None
    assert "spins" not in plain.diagnostics and plain.diagnostics["route"] == "sectors"


def test_labels_off_the_ladder_fall_back_to_the_plan_route():
    # spin 1/2 claimed for the XY chain in a field: its sector vectors have
    # no integral Casimir, so the plan route runs and says so
    h = assemble_hamiltonian(xy_field(0.3), chain_volume(8, "open"))
    low = low_levels(h, 6, method="krylov", spin=0.5)
    plain = low_levels(h, 6, method="krylov")
    assert low.route == "sectors" and np.array_equal(low.eigenvalues, plain.eigenvalues)
    with pytest.raises(DimensionMismatchError, match="power of the local dimension 3"):
        low_levels(h, 6, method="krylov", spin=1)


def _leaky_heisenberg():
    """The Heisenberg J=-1 bond plus 1e-14 (S+S+ + S-S-) on the L=10 ring: it
    commutes with the total S+ within STRUCTURE_TOL, but couples m0 to m0 +- 2."""
    ops = spin_matrices(0.5)
    bond = heisenberg(-1.0).bond_term + 1e-14 * (np.kron(ops.sp, ops.sp) + np.kron(ops.sm, ops.sm))
    return Interaction(2, bond_term=bond), chain_volume(10, "periodic")


def _assert_plan_route_matches_dense(low, h):
    dense = low_levels(h, method="dense")
    scale = max(1.0, np.abs(dense.eigenvalues).max())
    assert low.route == "sectors" and low.spins is None
    assert np.abs(low.eigenvalues - dense.eigenvalues[:low.eigenvalues.size]).max() <= 1e-12 * scale


def test_a_spin_claimed_for_h_that_leaves_sector_m0_runs_the_plan_route():
    # slicing path: a stored nonzero in m0's rows or columns outside m0 is found
    interaction, vol = _leaky_heisenberg()
    h = assemble_hamiltonian(interaction, vol)
    _assert_plan_route_matches_dense(low_levels(h, 6, method="krylov", spin=0.5), h)


def test_the_cli_builds_sector_m0_only_for_terms_that_keep_the_digit_sum_exactly():
    # native path: a term entry that changes the digit sum, however small,
    # withholds the certificate, so the full H is built and the plan route runs
    interaction, vol = _leaky_heisenberg()
    assert su2_spin(interaction) is None
    assert su2_spin(Interaction(2, bond_term=heisenberg(-1.0).bond_term)) == 0.5
    h = assemble_hamiltonian(interaction, vol)
    spec = parse_spec_dict({"task": "spectrum", "model": {"name": "heisenberg", "params": {"J": -1.0}},
                            "volume": {"dims": [10], "boundary": "periodic"}})
    run, built = cli._Run(spec, workers=1, cap_dense=16, cap_sparse=1024), []
    low = cli._low_levels(run, interaction, lambda: built.append(h) or h, 6, "krylov")
    assert built == [h]
    _assert_plan_route_matches_dense(low, h)


def test_su_q2_at_q_1_is_certified_from_its_terms():
    # the certificate reads the local terms, not the model's name
    assert su2_spin(xxz_suq2(1.0)) == 0.5
    assert su2_spin(heisenberg(1.0, spin=1.5)) == 1.5


def _block_with_spectrum(w, seed):
    """A dense real symmetric block with eigenvalues ``w``."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((w.size, w.size)))[0]
    return (q * w) @ q.T


def test_a_block_is_widened_only_when_its_pairs_may_hide_levels(lanczos_runs):
    # block a holds the ten lowest levels, an 8-fold ground level among them:
    # its first run's six pairs all lie in the window, so only it is run
    # again, twice as wide; block b's bound lies above every reported level
    a = _block_with_spectrum(np.concatenate((np.zeros(8), np.linspace(0.1, 0.2, 2),
                                             np.linspace(1.0, 2.0, 30))), 1)
    b = np.diag(np.full(20, 5.0)) + 0.1 * _block_with_spectrum(np.linspace(-1, 1, 20), 2)
    h = sp.block_diag((a, b), format="csr")
    low = low_levels(h, 1, method="krylov")
    assert lanczos_runs == [(40, 6), (40, 12)] and low.solved_blocks == [40, 40]
    assert low.degeneracy == 8 and abs(low.gap - 0.1) <= 1e-10
    _check_ground_basis(low, h, 2.0)


def test_the_callers_csr_is_not_rewritten():
    # an unsorted CSR keeps its arrays and its format flag through the
    # pattern search of both routes, and reads the same flip every time
    h = build_model_hamiltonian("heisenberg", {"J": 1.0}, chain_volume(8, "periodic")).tocsr()
    order = np.concatenate([np.arange(lo, hi)[::-1] for lo, hi in zip(h.indptr[:-1], h.indptr[1:])])
    m = sp.csr_array((h.data[order], h.indices[order], h.indptr), shape=h.shape)
    arrays = [x.copy() for x in (m.data, m.indices, m.indptr)]
    assert not m.has_canonical_format
    flips = [hermitian_eig(m).plan.flip for _ in range(2)]
    low = low_levels(m, 6, method="krylov")
    assert flips == [False, False]
    assert all(np.array_equal(x, y) for x, y in zip(arrays, (m.data, m.indices, m.indptr)))
    assert not m.has_canonical_format
    assert low.degeneracy == 9 and low.solved_blocks == [8, 28, 56, 70, 56, 28, 8]


def test_stored_zeros_join_no_block():
    # an explicit zero coupling two basis states leaves them apart
    m = sp.csr_array((np.array([1.0, 0.0, 0.0, 2.0]), np.array([0, 1, 0, 1]),
                      np.array([0, 2, 4])), shape=(2, 2))
    assert _block_plan(m).labels.tolist() == [0, 1]
    low = low_levels(m, 2, method="krylov")
    assert low.solved_blocks == [] and low.eigenvalues.tolist() == [1.0, 2.0]


def test_ising_ground_degeneracy():
    vol = chain_volume(3, boundary="open")
    h = assemble_hamiltonian(ising(j=1.0, h=0.0), vol)
    gs = ground_space(h)
    assert gs.degeneracy == 2  # the two aligned product states
    assert abs(gs.energy - (-0.5)) < 1e-12
    assert abs(spectral_gap(h) - 0.5) < 1e-12  # one domain wall costs 1/2


def _product_state(vol, digits):
    """The basis vector of the product state with ``digits``, complex."""
    v = np.zeros(vol.hilbert_dim, np.complex128)
    v[basis_index(vol, digits)] = 1.0
    return v


def test_two_point_oracles():
    vol = chain_volume(4, boundary="periodic")
    neel = pure(_product_state(vol, (0, 1, 0, 1)))
    # same site: Casimir S(S+1) = 3/4
    assert abs(two_point(neel, (0,), (0,), vol, kind="sdots") - 0.75) < 1e-14
    # product state S3 correlation factorizes
    assert abs(two_point(neel, (0,), (1,), vol, kind="s3s3") - (-0.25)) < 1e-14
    assert abs(two_point(neel, (0,), (2,), vol, kind="s3s3") - 0.25) < 1e-14
    # two-site singlet: <S0 . S1> = -3/4
    vol2 = chain_volume(2)
    sing = np.zeros(4, dtype=complex)
    sing[basis_index(vol2, (0, 1))] = 1 / np.sqrt(2)
    sing[basis_index(vol2, (1, 0))] = -1 / np.sqrt(2)
    got = two_point(pure(sing), (0,), (1,), vol2, kind="sdots")
    assert abs(got - (-0.75)) < 1e-14


def test_two_point_refuses_a_site_outside_the_volume():
    vol = chain_volume(4, boundary="periodic")
    neel = pure(_product_state(vol, (0, 1, 0, 1)))
    for x, y in (((4,), (0,)), ((0,), (7,))):
        with pytest.raises(DomainError, match="is not in the volume"):
            two_point(neel, x, y, vol)


_ES3 = EigenSystem(assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(3)))  # dim 8
_WRONG = sp.eye_array(4, format="csr")

# a wrong-size operator or state at each entry point that sizes it against H
_MISMATCHES = {
    "pairs": lambda: list(_ES3.pairs(_WRONG)),
    "eigen_diagonal": lambda: _ES3.eigen_diagonal(_WRONG),
    "evolve": lambda: _ES3.evolve(_WRONG, 0.5),
    "kms_terms_a_and_b": lambda: kms_terms(_ES3, _WRONG, _WRONG),
    "kms_terms_a_against_b": lambda: kms_terms(_ES3, _WRONG, np.eye(8)),
    "evolve_vector": lambda: _ES3.evolve_vector(np.ones(4), 0.5),
    "stability_value_mixture": lambda: stability_value(_ES3, pure(np.ones(4)), np.eye(8)),
    "stability_value_operator": lambda: stability_value(_ES3, pure(np.ones(8)), np.eye(4)),
}


@pytest.mark.parametrize("entry", sorted(_MISMATCHES))
def test_a_wrong_size_operator_or_state_is_a_dimension_mismatch(entry):
    with pytest.raises(DimensionMismatchError):
        _MISMATCHES[entry]()


def test_two_point_accepts_density_matrix():
    vol = chain_volume(2)
    rho = maximally_mixed(4)
    # tracial state: <S3_0 S3_1> = 0, same-site Casimir unchanged
    assert abs(two_point(rho, (0,), (1,), vol, kind="s3s3")) < 1e-14
    assert abs(two_point(rho, (0,), (0,), vol, kind="sdots") - 0.75) < 1e-14


def test_structure_factor_reference_states():
    vol = chain_volume(4, boundary="periodic")
    mixed = maximally_mixed(vol.hilbert_dim)
    # cross terms vanish in the tracial state: S(k) = <(S3)^2>/N = 1/16
    assert abs(structure_factor(mixed, vol, np.pi) - 1 / 16) < 1e-14
    neel = pure(_product_state(vol, (0, 1, 0, 1)))
    assert abs(structure_factor(neel, vol, np.pi) - 0.25) < 1e-14
    up = pure(_product_state(vol, (0, 0, 0, 0)))
    assert abs(structure_factor(up, vol, np.pi)) < 1e-14
    assert abs(structure_factor(up, vol, 0.0) - 0.25) < 1e-14


def test_structure_factor_detects_afm_order():
    # the AFM ground state concentrates weight at momentum pi
    vol = chain_volume(8, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol)
    gs = ground_space(h)
    state = pure(gs.basis[:, 0])
    s_pi = structure_factor(state, vol, np.pi)
    s_0 = structure_factor(state, vol, 0.0)
    assert s_pi > 5 * abs(s_0)
    assert s_pi > 0.05
