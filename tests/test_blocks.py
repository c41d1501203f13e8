"""The block-native EigenSystem consumers against a full complex eigh.

Every consumer of the decomposition (evolution in real and imaginary time,
the eigenbasis transform, Gibbs states, the KMS residual) works block pair
by block pair.  Here each is checked against products of the full complex
``numpy.linalg.eigh`` of H on every built-in model, on the complex
Dzyaloshinskii-Moriya ring, whose blocks are complex, and on a Hamiltonian
with several size-1 blocks beside a complex one.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from spinmodels import (
    DomainError,
    EigenSystem,
    build_model_hamiltonian,
    chain_volume,
    commutator,
    eeb_deficit,
    eeb_terms,
    embed,
    expectation,
    gibbs,
    heisenberg,
    kms_residual,
    lr_scan,
    random_probe_pairs,
    spectra,
    spin_algebra,
    spin_matrices,
)
from spinmodels.cli import parse_spec_dict, run_spec
from spinmodels.interactions import MODEL_NAMES, MODELS
from spinmodels.spin_algebra import _block_plan, eigenvector_columns, hermitian_eig

_PARAMS = {"xy_field": {"h": 0.3}, "ising": {"h": 0.4}, "xxz_suq2": {"q": 0.5}}
CASES = [*MODEL_NAMES, "dm_chain", "singles"]


def _singles_hamiltonian():
    """Four size-1 blocks (basis states 0, 3, 5, 6) beside one complex 4 x 4
    block on the states 1, 2, 4, 7 of a 3-site spin-1/2 chain."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = np.diag([0.3, 0.0, 0.0, -1.1, 0.0, 2.0, 0.7, 0.0]).astype(complex)
    h[np.ix_([1, 2, 4, 7], [1, 2, 4, 7])] = x + x.conj().T
    return sp.csr_array(h)


@pytest.fixture(params=CASES)
def case(request, dm_chain):
    """(H as CSR, its chain volume) for one model record, the DM ring, or a
    Hamiltonian with several size-1 blocks."""
    if request.param == "dm_chain":
        return dm_chain(6), chain_volume(6, "periodic")
    if request.param == "singles":
        return _singles_hamiltonian(), chain_volume(3, "open")
    params = _PARAMS.get(request.param, {})
    local_dim = MODELS[request.param].interaction(params).local_dim
    vol = chain_volume(4 if local_dim > 2 else 6, "open", local_dim=local_dim)
    return build_model_hamiltonian(request.param, params, vol).tocsr(), vol


def _full_eigh(h):
    hd = np.asarray(h.toarray(), dtype=complex)
    w, v = np.linalg.eigh(hd)
    return w, v, max(1.0, float(np.max(np.abs(w))))


def _observables(vol):
    """S3 at site 0 keeps H's sectors; S1 at site 0 changes them."""
    ops = spin_matrices((vol.local_dim - 1) / 2.0)
    return {name: embed(m, [(0,)], vol) for name, m in (("s3", ops.s3), ("s1", ops.s1))}


def _block_pair_bound(h, a):
    """Sum of d_b d_c over the pairs of blocks of H's pattern that A couples."""
    _, labels = connected_components(sp.csr_array(h) != 0, directed=False)
    sizes = np.bincount(labels)
    rows, cols = sp.csr_array(a).nonzero()
    pairs = set(zip(labels[rows].tolist(), labels[cols].tolist()))
    return sum(int(sizes[b] * sizes[c]) for b, c in pairs)


def test_evolutions_match_full_eigh_and_keep_storage(case):
    h, vol = case
    es = EigenSystem(h)
    w, v, scale = _full_eigh(h)
    for a in _observables(vol).values():
        ad = a.toarray()
        for t in (0.4, 1.3):
            u = (v * np.exp(-1j * t * w)) @ v.conj().T
            want = u.conj().T @ ad @ u
            sparse_out = es.evolve(a, t)
            dense_out = es.evolve(ad, t)
            assert sp.issparse(sparse_out) and isinstance(dense_out, np.ndarray)
            assert sparse_out.nnz <= _block_pair_bound(h, a)
            assert np.max(np.abs(sparse_out.toarray() - want)) < 1e-12 * scale
            assert np.max(np.abs(dense_out - want)) < 1e-12 * scale
        for beta in (0.3, 1.1):
            want = (v * np.exp(-beta * w)) @ v.conj().T @ ad @ (v * np.exp(beta * w)) @ v.conj().T
            got = es.evolve_imaginary(a, beta)
            assert sp.issparse(got)
            assert got.nnz <= _block_pair_bound(h, a)
            assert np.max(np.abs(got.toarray() - want)) < 1e-10 * np.max(np.abs(want))
            got = es.evolve_imaginary(ad, beta)
            assert isinstance(got, np.ndarray)
            assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_gibbs_state_and_kms_match_full_eigh(case, dense_state):
    h, vol = case
    es = EigenSystem(h)
    w, v, scale = _full_eigh(h)
    pairs = random_probe_pairs(vol, 3, 4) + [tuple(_observables(vol).values())]
    for beta in (0.0, 0.5, 2.0):
        p = np.exp(-beta * (w - w[0]))
        want = (v * (p / p.sum())) @ v.conj().T
        state = gibbs(es, beta)
        assert np.max(np.abs(dense_state(state.rho) - want)) < 1e-13
        assert abs(state.log_z - (np.log(p.sum()) - beta * w[0])) < 1e-12 * scale
        # the flow side against the same sum over the full eigenbasis
        for a, b in pairs:
            assert kms_residual(es, beta, a, b) < 1e-12


def test_prepared_eeb_terms_give_the_per_call_deficits(case):
    # terms prepared once from the EigenSystem serve every beta; eeb_deficit
    # rebuilds them from the raw H at each call
    h, vol = case
    es = EigenSystem(h)
    probes = [a for a, _ in random_probe_pairs(vol, 5, 6)] + list(_observables(vol).values())
    terms = [eeb_terms(es, x) for x in probes]
    for beta in (0.0, 0.5, 2.0):
        state = gibbs(es, beta).rho
        for x, t in zip(probes, terms):
            want = eeb_deficit(h, beta, x, state, allow_degenerate=True)
            scale = max(1.0, abs(expectation(state, t.xdx)))
            assert abs(t.deficit(beta, state, allow_degenerate=True) - want) <= 1e-13 * scale


def test_gibbs_state_is_built_once_per_beta(dm_chain):
    es = EigenSystem(dm_chain(4))
    first = gibbs(es, 0.7)
    assert gibbs(es, 0.7) is first
    assert gibbs(es, 1.2) is not first
    assert np.array_equal(gibbs(es, 0.7).rho.data, first.rho.data)


def test_evolve_vector_matches_full_eigh(case):
    h, _ = case
    es = EigenSystem(h)
    w, v, _ = _full_eigh(h)
    psi = np.random.default_rng(5).standard_normal(es.dim) + 0j
    want = (v * np.exp(-0.8j * w)) @ (v.conj().T @ psi)
    assert np.max(np.abs(es.evolve_vector(psi, 0.8) - want)) < 1e-12 * np.linalg.norm(psi)


def test_light_cone_scan_of_s1_matches_dense_reference(tmp_path, monkeypatch):
    sec = {"times": [0.0, 0.5, 1.5], "distances": [1, 2, 3, 4, 5], "observable": "s1"}
    doc = {"schema_version": 1, "task": "dynamics",
           "model": {"name": "heisenberg", "params": {"J": 1.0}},
           "volume": {"dims": [6], "boundary": "open"}, "dynamics": sec,
           "output": {"json": "scan.json", "csv": "scan.csv"}}
    # S1 is not diagonal: each norm is one hermitian_eig of a CSR commutator
    from spinmodels import dynamics

    solves, solve = [], dynamics.hermitian_eig
    monkeypatch.setattr(dynamics, "hermitian_eig", lambda m, **k: solves.append(1) or solve(m, **k))
    payload = json.loads(run_spec(parse_spec_dict(doc), tmp_path).read_text())["payload"]
    assert len(solves) == 15
    vol = chain_volume(6, "open")
    h = build_model_hamiltonian("heisenberg", {"J": 1.0}, vol)
    w, v, _ = _full_eigh(h)
    s1 = spin_matrices(0.5).s1
    a = embed(s1, [(0,)], vol).toarray()
    for i, t in enumerate(sec["times"]):
        u = (v * np.exp(-1j * t * w)) @ v.conj().T
        at = u.conj().T @ a @ u
        for j, x in enumerate(sec["distances"]):
            b = embed(s1, [(x,)], vol).toarray()
            want = np.linalg.norm(at @ b - b @ at, 2)
            assert abs(payload["norms"][i][j] - want) < 1e-12


def test_pattern_blocks_are_the_plain_components_in_order(case):
    # the numpy search labels H's blocks, and those of a light-cone
    # commutator i[alpha_t(S1_0), S1_x], as scipy's components do, the
    # eigenvalue-only solve has the same block order and sizes, and the
    # commutator given as an ndarray is solved as its CSR form, bit for bit
    h, vol = case
    es = EigenSystem(h)
    at = es.evolve(_observables(vol)["s1"], 0.7)
    b = embed(spin_matrices((vol.local_dim - 1) / 2.0).s1, [(vol.num_sites - 1,)], vol)
    c = 1j * (at @ b - b @ at)
    for m in (h, c, c.toarray()):
        _, plain = connected_components(sp.csr_array(m) != 0, directed=False)
        assert np.array_equal(_block_plan(sp.csr_array(m)).labels, plain)
        eig = hermitian_eig(m)
        assert np.array_equal(eig.plan.labels, plain)
        large = [k for k in range(plain.max() + 1) if np.sum(plain == k) > 1]
        assert [idx.tolist() for idx, _, _ in eig.blocks[1:]] == [
            np.flatnonzero(plain == k).tolist() for k in large]
        assert np.array_equal(eig.plan.labels, hermitian_eig(m, vectors=False).plan.labels)
    dense, csr = hermitian_eig(c.toarray()), hermitian_eig(c)
    assert np.array_equal(dense.eigenvalues, csr.eigenvalues)
    assert len(dense.blocks) == len(csr.blocks)
    for (i, w, v), (i2, w2, v2) in zip(dense.blocks[1:], csr.blocks[1:]):
        assert np.array_equal(i, i2) and np.array_equal(w, w2) and np.array_equal(v, v2)


_RECORDS = [(name, boundary) for name in MODEL_NAMES for boundary in ("open", "periodic")
            if boundary == "open" or not MODELS[name].open_chain_only]


def _scipy_labels(indptr, indices):
    """scipy's component labels of a CSR pattern read as an undirected graph."""
    n = indptr.size - 1
    graph = sp.csr_array((np.ones(indices.size), indices, indptr), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def test_component_search_matches_scipy_on_random_patterns():
    # one-directional entries, duplicates, unsorted columns, empty rows and
    # self-loops, and the sizes 0 and 1
    rng = np.random.default_rng(11)
    cases = [(np.zeros(1, np.int32), np.zeros(0, np.int32)),
             (np.zeros(2, np.int32), np.zeros(0, np.int32)),
             (np.array([0, 1], np.int32), np.zeros(1, np.int32))]
    for _ in range(300):
        n = int(rng.integers(2, 50))
        k = int(rng.integers(0, 2 * n))
        rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
        loops = rng.integers(0, n, int(rng.integers(0, 3)))
        rows, cols = np.concatenate((rows, loops)), np.concatenate((cols, loops))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        cases.append((indptr, cols[np.argsort(rows, kind="stable")].astype(np.int32)))
    for indptr, indices in cases:
        got = spin_algebra._components(indptr, indices)
        assert np.array_equal(got, _scipy_labels(indptr, indices))


def test_component_search_matches_scipy_on_light_cone_and_model_patterns(monkeypatch):
    # every pattern the bench lightcone scan searches (H and the Grams of
    # its norms), those of an S1 scan (its commutators i[alpha_t(S1_0), S1_x]
    # too), and the pattern of every model record's H
    seen, search = [], spin_algebra._components
    monkeypatch.setattr(spin_algebra, "_components",
                        lambda ptr, idx: seen.append((ptr, idx)) or search(ptr, idx))
    ops = spin_matrices(0.5)
    lr_scan(heisenberg(j=1.0), chain_volume(9, "open"), ops.s3, ops.s3, [0.0, 0.5, 1.0, 2.0],
            list(range(1, 9)))
    lr_scan(heisenberg(j=1.0), chain_volume(6, "open"), ops.s1, ops.s1, [0.0, 0.5, 1.0],
            list(range(1, 6)))
    assert {ptr.size - 1 for ptr, _ in seen} == {512, 64}
    for name, boundary in _RECORDS:
        params = _PARAMS.get(name, {})
        local_dim = MODELS[name].interaction(params).local_dim
        vol = chain_volume(4 if local_dim > 2 else 6, boundary, local_dim=local_dim)
        _block_plan(build_model_hamiltonian(name, params, vol))
    monkeypatch.undo()
    assert len(seen) > 15 + len(_RECORDS)
    for indptr, indices in seen:
        assert np.array_equal(spin_algebra._components(indptr, indices),
                              _scipy_labels(indptr, indices))


def test_component_search_of_a_relabelled_path_takes_few_rounds(monkeypatch):
    # a path of 2^16 vertices in random order, each edge stored once: every
    # round calls flatnonzero once; this path takes 10 rounds (2^20: 13),
    # where a search that merged one tree per round would take thousands
    n = 2**16
    order = np.random.default_rng(2).permutation(n)
    path = sp.csr_array((np.ones(n - 1), (order[:-1], order[1:])), shape=(n, n))
    rounds, flatnonzero = [], np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: rounds.append(1) or flatnonzero(a))
    labels = spin_algebra._components(path.indptr, path.indices)
    monkeypatch.undo()
    assert np.array_equal(labels, np.zeros(n)) and len(rounds) <= 2 * 16
    assert np.array_equal(labels, _scipy_labels(path.indptr, path.indices))


@pytest.mark.parametrize("name, boundary", _RECORDS, ids=[f"{n}-{b}" for n, b in _RECORDS])
def test_both_routes_copy_mirror_blocks_from_one_plan(name, boundary, monkeypatch):
    # mirror is an involution, a mirrored block holds the reversed image
    # (n-1-idx)[::-1] of its partner's indices, the EigenSystem keeps the plan
    # it solved, the dense and krylov routes build the same plan and copy each
    # solved block onto its mirror in it, and the krylov route of an
    # EigenSystem reads the system's plan instead of building another
    params = _PARAMS.get(name, {})
    local_dim = MODELS[name].interaction(params).local_dim
    vol = chain_volume(4 if local_dim > 2 else 6, boundary, local_dim=local_dim)
    h = build_model_hamiltonian(name, params, vol).tocsr()
    n = h.shape[0]
    plans, copies, build = [], [], spin_algebra._block_plan
    mirrored = spin_algebra._BlockPlan.mirrored

    def recording_plan(m):
        plans.append(build(m))
        copies.append([])
        return plans[-1]

    def recording_copy(plan, block):
        out = mirrored(plan, block)
        copies[-1].append((block[0], out[0]))
        return out

    for module in (spin_algebra, spectra):
        monkeypatch.setattr(module, "_block_plan", recording_plan)
    monkeypatch.setattr(spin_algebra._BlockPlan, "mirrored", recording_copy)
    es = EigenSystem(h)
    low = spectra.low_levels(h, 2, method="krylov")
    copies.append([])
    again = spectra.low_levels(es, 2, method="krylov")
    dense, krylov = plans
    assert es.plan is dense and len(copies[2]) == len(copies[1])
    assert again.solved_blocks == low.solved_blocks
    assert np.array_equal(again.eigenvalues, low.eigenvalues)
    blocks = range(1, dense.starts.size - 1)
    members = [dense.members[dense.starts[b]:dense.starts[b + 1]] for b in blocks]
    for field in ("labels", "members", "starts", "mirror"):
        assert np.array_equal(getattr(krylov, field), getattr(dense, field))
    assert krylov.flip == dense.flip == es.plan.flip
    assert [dense.mirror[dense.mirror[b]] for b in blocks] == list(blocks)
    if not dense.flip:
        assert np.array_equal(dense.mirror, np.arange(dense.starts.size - 1)) and copies[0] == []
        return
    block_of = {tuple(idx.tolist()): b for b, idx in zip(blocks, members)}
    for b, idx in zip(blocks, members):
        assert np.array_equal(members[dense.mirror[b] - 1], (n - 1 - idx)[::-1])
    dense_pairs, krylov_pairs, reused_pairs = (
        [(block_of[tuple(i.tolist())], block_of[tuple(j.tolist())]) for i, j in route]
        for route in copies)
    assert reused_pairs == krylov_pairs
    assert dense_pairs == [(dense.mirror[c], c) for c in blocks if dense.mirror[c] < c]
    assert krylov_pairs and all(dense.mirror[b] == c for b, c in krylov_pairs)


def test_light_cone_scan_norms_come_from_gram_eigvalsh_alone(monkeypatch):
    # the bench lightcone spec: on each of H's blocks S3_x is diagonal with
    # two values, so the norm of i[alpha_t(S3_0), S3_x] there is the largest
    # singular value of one corner, read from a Gram eigvalsh, and no SVD
    # runs; the norms match a dense eigvalsh of the commutator built from a
    # full complex eigh
    times, dists = [0.0, 0.5, 1.0, 2.0], list(range(1, 9))
    vol = chain_volume(9, "open")
    s3 = spin_matrices(0.5).s3
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("took an SVD"))
    scan = lr_scan(heisenberg(j=1.0), vol, s3, s3, times, dists)
    monkeypatch.undo()
    w, v, _ = _full_eigh(build_model_hamiltonian("heisenberg", {"J": 1.0}, vol))
    a = embed(s3, [(0,)], vol).toarray()
    for i, t in enumerate(times):
        u = (v * np.exp(-1j * t * w)) @ v.conj().T
        at = u.conj().T @ a @ u
        for j, x in enumerate(dists):
            b = embed(s3, [(x,)], vol).diagonal()
            c = 1j * at * (b[None, :] - b[:, None])  # i[alpha_t(A), B] for diagonal B
            want = np.max(np.abs(np.linalg.eigvalsh(c)))
            assert abs(scan.norms[i, j] - want) <= 1e-13


def test_light_cone_scan_copies_half_its_corner_norms(monkeypatch):
    # the bench lightcone spec: H, S3_0 and every S3_x have a flip parity, so
    # the -m blocks of H repeat the +m blocks' norms and are skipped: 12
    # stacked eigvalsh calls (3 times t > 0, 4 of H's 8 blocks; in a block of
    # fixed m all 8 corners have one shape) and no SVD.  No alpha_t(A) is
    # built as a matrix, no commutator is formed, no hermitian_eig runs, and
    # the t = 0 row is written as exact zeros
    from spinmodels import dynamics

    calls = {"svd": 0, "eigvalsh": 0, "commutator": 0, "hermitian_eig": 0}
    for module, name in ((np.linalg, "svd"), (np.linalg, "eigvalsh"),
                         (dynamics, "commutator"), (dynamics, "hermitian_eig")):
        def counted(*a, _name=name, _call=getattr(module, name), **k):
            calls[_name] += 1
            return _call(*a, **k)
        monkeypatch.setattr(module, name, counted)
    for method in ("evolve", "_conjugate"):
        monkeypatch.setattr(EigenSystem, method, lambda *a, **k: pytest.fail("built alpha_t(A)"))
    s3 = spin_matrices(0.5).s3
    scan = lr_scan(heisenberg(j=1.0), chain_volume(9, "open"), s3, s3, [0.0, 0.5, 1.0, 2.0],
                   range(1, 9))
    assert calls == {"svd": 0, "eigvalsh": 12, "commutator": 0, "hermitian_eig": 0}
    assert scan.norms[0].tolist() == [0.0] * 8 and np.all(scan.norms[1:] > 0)


@pytest.mark.parametrize("name, boundary", _RECORDS, ids=[f"{n}-{b}" for n, b in _RECORDS])
def test_diagonal_light_cone_route_matches_the_commutator_route_and_full_eigh(
        name, boundary, monkeypatch):
    # for A = B = S3, and for A = S3 + 0.3 (no flip parity, so no mirror
    # block is skipped) with B = 2 S3, the block route matches hermitian_eig
    # of the CSR commutator and the dense commutator of a full complex eigh;
    # AKLT's three-valued S3 takes an eigvalsh per distance, a two-valued S3
    # one stacked Gram eigvalsh per block (its corners have one shape) and no
    # SVD; each block is flowed once per t > 0
    params = _PARAMS.get(name, {})
    interaction = MODELS[name].interaction(params)
    vol = chain_volume(4 if interaction.local_dim > 2 else 6, boundary,
                       local_dim=interaction.local_dim)
    s3 = spin_matrices((vol.local_dim - 1) / 2.0).s3
    es = EigenSystem(build_model_hamiltonian(name, params, vol))
    w, v, _ = _full_eigh(es.h)
    times, dists = [0.0, 0.4, 1.1], list(range(vol.num_sites))
    for a_local, b_local, parity in ((s3, s3, -1), (s3 + 0.3 * np.eye(vol.local_dim), 2 * s3, 0)):
        calls = dict.fromkeys(("flow", "svd", "eigvalsh"), 0)
        with monkeypatch.context() as patch:
            for owner, attr in ((EigenSystem, "flow"), (np.linalg, "svd"),
                                (np.linalg, "eigvalsh")):
                def counted(*a, _attr=attr, _call=getattr(owner, attr), **k):
                    calls[_attr] += 1
                    return _call(*a, **k)
                patch.setattr(owner, attr, counted)
            scan = lr_scan(interaction, vol, a_local, b_local, times, dists)
        assert scan.norms[0].tolist() == [0.0] * len(dists)
        skip = es.plan.flip and parity != 0
        solved = sum(1 for b in range(1, es.plan.starts.size - 1)
                     if not skip or es.plan.mirror[b] >= b)
        assert calls["flow"] == 2 * solved
        if vol.local_dim > 2:
            assert calls["eigvalsh"] > 0
        else:
            assert calls == {"flow": 2 * solved, "svd": 0, "eigvalsh": 2 * solved}
        a = embed(a_local, [(0,)], vol)
        for i, t in enumerate(times):
            at = es.evolve(a, t)
            u = (v * np.exp(-1j * t * w)) @ v.conj().T
            at_full = u.conj().T @ a.toarray() @ u
            for j, x in enumerate(dists):
                b = embed(b_local, [(x,)], vol)
                csr = np.abs(hermitian_eig(commutator(at, 1j * b), vectors=False).eigenvalues).max()
                full = np.linalg.norm(at_full @ b.toarray() - b.toarray() @ at_full, 2)
                for want in (csr, full):
                    assert abs(scan.norms[i, j] - want) <= 1e-13 * scan.bound


def test_light_cone_scan_refuses_non_hermitian_observables():
    ops = spin_matrices(0.5)
    with pytest.raises(DomainError):
        lr_scan(heisenberg(), chain_volume(4, "open"), ops.sp, ops.s3, (0.5,), (1,))


def test_operators_are_evolved_without_the_dense_eigenvector_matrix(case, monkeypatch):
    h, vol = case
    es = EigenSystem(h)
    # eigenvector_columns is the one scatter of blocks into dense columns
    for module in (spectra, spin_algebra):
        monkeypatch.setattr(module, "eigenvector_columns", lambda *args: pytest.fail(
            "scattered the dense eigenvector matrix"))
    for a in _observables(vol).values():
        es.evolve(a, 0.3)
        es.evolve_imaginary(a.toarray(), 0.3)
        kms_residual(es, 0.5, a, a)
    gibbs(es, 0.5)


def _block_vectors(es):
    """Each block's eigenvectors as dense dim-long columns, block 0 the identity."""
    cols = []
    for idx, _, v in es.blocks:
        full = np.zeros((es.dim, idx.size), dtype=complex)
        full[idx] = v.toarray() if sp.issparse(v) else v
        cols.append(full)
    return cols


def test_pairs_match_the_blocks_of_the_full_product(case):
    h, vol = case
    es = EigenSystem(h)
    cols = _block_vectors(es)
    # every pair takes the one route V_b^H (A_bc V_c), A_bc a COO array of A's
    # entries in the pair, and a pair of two block-0 sides is A_bc itself;
    # the evolved operator fills its block pairs, the local observables and
    # probes touch few entries of each
    evolved = es.evolve(_observables(vol)["s1"], 0.7)
    ops = [*_observables(vol).values(), evolved,
           *(op for pair in random_probe_pairs(vol, 11, 4) for op in pair)]
    for op in ops:
        ad, csr = op.toarray(), op.tocsr()
        # the same entries with each row's order reversed: not canonical CSR
        order = np.concatenate([np.arange(lo, hi)[::-1]
                                for lo, hi in zip(csr.indptr[:-1], csr.indptr[1:])])
        shuffled = sp.csr_array((csr.data[order], csr.indices[order], csr.indptr), shape=csr.shape)
        # each entry stored twice at half its value: duplicates must add
        doubled = sp.csr_array((np.repeat(csr.data / 2, 2), np.repeat(csr.indices, 2),
                                2 * csr.indptr), shape=csr.shape)
        assert not doubled.has_canonical_format
        for stored in (csr, shuffled, doubled, ad):
            got = {(b, c): x for b, c, x in es.pairs(stored)}
            for b, vb in enumerate(cols):
                for c, vc in enumerate(cols):
                    want = vb.conj().T @ ad @ vc
                    x = got.get((b, c), np.zeros_like(want))
                    x = x.toarray() if sp.issparse(x) else x
                    assert x.shape == want.shape
                    assert np.max(np.abs(x - want), initial=0.0) < 1e-13


def test_kms_flow_side_equals_the_full_eigenbasis_sum(case, monkeypatch):
    from spinmodels import states

    h, vol = case
    es = EigenSystem(h)
    w, v, _ = _full_eigh(h)
    for beta in (0.5, 2.0):
        p = np.exp(-beta * (w - w[0]))
        for a, b in random_probe_pairs(vol, 13, 4) + [tuple(_observables(vol).values())]:
            at, bt = (v.conj().T @ op.toarray() @ v for op in (a, b))
            want = np.sum(at * bt.T * p[None, :]) / p.sum()  # sum A'_jk B'_kj e^{-beta w_k} / Z
            # the comparison side returns the oracle, so the residual is |flow side - oracle|
            monkeypatch.setattr(states, "expectation", lambda state, op, want=want: want)
            assert kms_residual(es, beta, a, b) < 1e-13 * max(1.0, abs(want))


def _dense(x):
    return x.toarray() if sp.issparse(x) else x


def test_kms_flow_is_the_sum_over_the_intermediate_index(case):
    # the flow side t_k = (V^H BA V)_kk, read from BA's diagonal blocks, is
    # sum_j A'_jk B'_kj, here rebuilt from every block pair of A' and B'; the
    # two agree because V V^H = I, which the orthogonality defect witnesses
    from spinmodels import states

    h, vol = case
    es = EigenSystem(h)
    assert es.orthogonality_defect <= 1e-12
    start = np.cumsum([0] + [w.size for _, w, _ in es.blocks])
    for a, b in random_probe_pairs(vol, 23, 4) + [tuple(_observables(vol).values())]:
        at = {(j, k): _dense(x) for j, k, x in es.pairs(a)}  # A' from block j to block k
        want = np.zeros(es.dim, complex)
        for k, j, xb in es.pairs(b):
            if (j, k) in at:
                want[start[k]:start[k + 1]] += np.sum(at[j, k] * _dense(xb).T, axis=0)
        got = states.kms_terms(es, a, b).flow
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


def test_a_corrupted_eigenvector_fails_the_kms_check(tmp_path, monkeypatch):
    # tilting one eigenvector toward another, at unit norm, leaves the flow
    # side and the comparison side in agreement: the residual passes, and only
    # the orthogonality defect shows that V is no longer unitary
    from spinmodels import cli

    class Tilted(EigenSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            v = max((v for _, _, v in self.blocks[1:]), key=len)
            v[:, 1] += 1e-6 * v[:, 0]
            v[:, 1] /= np.linalg.norm(v[:, 1])

    monkeypatch.setattr(cli, "EigenSystem", Tilted)
    doc = {"schema_version": 1, "task": "verify",
           "model": {"name": "xxz_suq2", "params": {"q": 0.5}},
           "volume": {"dims": [5], "boundary": "open"},
           "verify": {"checks": ["kms"], "betas": [0.5, 1.0], "num_probes": 4}, "seed": 0}
    payload = json.loads(run_spec(parse_spec_dict(doc), tmp_path).read_text())["payload"]
    kms = payload["checks"]["kms"]
    assert kms["max_residual"] <= 1e-13 and kms["orthogonality_defect"] > 1e-10
    assert kms["ok"] is False and payload["all_ok"] is False


def test_kms_and_evolve_never_densify_the_full_matrix(case, forbid_full_toarray):
    h, vol = case
    es = EigenSystem(h)
    forbid_full_toarray(es.dim)
    pairs = random_probe_pairs(vol, 17, 4) + [tuple(_observables(vol).values())]
    for a, b in pairs:
        assert kms_residual(es, 0.8, a, b) < 1e-12
        assert sp.issparse(es.evolve(a, 0.6)) and sp.issparse(es.evolve_imaginary(b, 0.4))


# ---------------------------------------------------------------------------
# Spin flip: J H J == H for J the index reversal
# ---------------------------------------------------------------------------


@pytest.fixture
def solves(monkeypatch):
    """(name, size) of each numpy.linalg.eigh and eigvalsh call, in order."""
    log = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            log.append((_name, a.shape[0]))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return log


def _flipped(m):
    return m[::-1, ::-1]


def _plain_sizes(m):
    """The sizes > 1 of the plain pattern components, in order: the solves
    of the path that takes no flip."""
    _, labels = connected_components(sp.csr_array(m) != 0, directed=False)
    return [int(k) for k in np.bincount(labels) if k > 1]


def _check_decomposition(es, eigen_residuals, w_full, scale):
    assert np.max(np.abs(es.eigenvalues - w_full)) < 1e-13 * scale
    assert np.max(eigen_residuals(es)) < 1e-13 * scale
    v = eigenvector_columns(es)
    assert np.max(np.abs(v.conj().T @ v - np.eye(es.dim))) < 1e-13


_FLIP_CASES = [("heisenberg", {}, "periodic"), ("heisenberg", {}, "open"),
               ("xy_field", {"h": 0.0}, "periodic"), ("xy_field", {"h": 0.3}, "periodic"),
               ("ising", {"h": 0.0}, "open"), ("ising", {"h": 0.4}, "open"),
               ("aklt", {}, "periodic"), ("xxz_suq2", {"q": 0.5}, "open")]


@pytest.mark.parametrize("name, params, boundary", _FLIP_CASES,
                         ids=[f"{n}-{'-'.join(map(str, p.values()))}-{b}"
                              for n, p, b in _FLIP_CASES])
def test_flip_decomposition_matches_full_eigh_on_every_model(solves, eigen_residuals,
                                                           name, params, boundary):
    # a flip-symmetric H solves each +-m sector pair once and each
    # self-mirrored sector as two halves; any other H makes the solves of
    # the path without the flip, one eigh per block of size > 1
    assert {n for n, _, _ in _FLIP_CASES} == set(MODELS)
    local_dim = MODELS[name].interaction(params).local_dim
    vol = chain_volume(5 if local_dim > 2 else 8, boundary, local_dim=local_dim)
    h = build_model_hamiltonian(name, params, vol).tocsr()
    symmetric = np.array_equal(_flipped(h.toarray()), h.toarray())
    assert symmetric == (name in ("heisenberg", "aklt") or params.get("h") == 0.0)
    solves.clear()
    es = EigenSystem(h)
    made = list(solves)
    assert es.plan.flip == symmetric
    if symmetric:
        assert made == [] or sum(k ** 3 for _, k in made) < sum(k ** 3 for k in _plain_sizes(h))
    else:
        assert made == [("eigh", k) for k in _plain_sizes(h)]
    w, _, scale = _full_eigh(h)
    _check_decomposition(es, eigen_residuals, w, scale)


def test_flip_halves_with_a_fixed_point_aklt_ring(solves, eigen_residuals):
    # dim 3^5 = 243 is odd: the all-zero state 121 is its own mirror, and the
    # self-mirrored m = 0 sector (51 states) splits into halves of 26 and 25
    vol = chain_volume(5, "periodic", local_dim=3)
    h = build_model_hamiltonian("aklt", {}, vol).tocsr()
    solves.clear()
    es = EigenSystem(h)
    assert es.plan.flip
    assert np.bincount(es.plan.labels).tolist() == [1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1]
    assert solves == [("eigh", k) for k in (5, 15, 30, 45, 26, 25)]
    w, _, scale = _full_eigh(h)
    _check_decomposition(es, eigen_residuals, w, scale)
    middle = next(v for idx, _, v in es.blocks if idx.size == 51)
    assert np.any(middle[25] != 0)  # the fixed index carries the even half


@pytest.mark.parametrize("n", [8, 9])
def test_flip_halves_of_a_random_complex_hermitian_matrix(solves, n):
    rng = np.random.default_rng(43)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = x + x.conj().T
    m = x + _flipped(x)
    assert np.array_equal(_flipped(m), m) and np.array_equal(m, m.conj().T)
    want = np.linalg.eigvalsh(m)
    for given in (m, sp.csr_array(m)):
        solves.clear()
        eig = hermitian_eig(given)
        assert eig.plan.flip and solves == [("eigh", n - n // 2), ("eigh", n // 2)]
        v = eigenvector_columns(eig)
        assert v.dtype == np.complex128
        assert np.max(np.abs(eig.eigenvalues - want)) < 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(m @ v - v * eig.eigenvalues)) < 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-13
        (_, w, _), = eig.blocks[1:]
        assert np.all(np.diff(w) >= 0)  # sorted within the block
        solves.clear()
        w_only = hermitian_eig(given, vectors=False).eigenvalues
        assert solves == [("eigvalsh", n - n // 2), ("eigvalsh", n // 2)]
        assert np.max(np.abs(w_only - eig.eigenvalues)) < 1e-13 * np.max(np.abs(want))


def test_near_flip_and_non_canonical_csr_take_the_path_without_the_flip(solves):
    # only exact equality counts: one entry pair one ulp off, or a CSR whose
    # rows are not sorted, makes one eigh per sector
    h = build_model_hamiltonian("heisenberg", {"J": 1.0}, chain_volume(8, "periodic")).tocsr()
    assert hermitian_eig(h).plan.flip
    near = h.toarray()
    i, j = np.argwhere(np.triu(near != 0, 1))[0]
    near[i, j] = near[j, i] = np.nextafter(near[i, j].real, np.inf)
    assert 0 < np.max(np.abs(_flipped(near) - near)) < 1e-15
    order = np.concatenate([np.arange(lo, hi)[::-1] for lo, hi in zip(h.indptr[:-1], h.indptr[1:])])
    shuffled = sp.csr_array((h.data[order], h.indices[order], h.indptr), shape=h.shape)
    assert not shuffled.has_canonical_format
    for m in (near, sp.csr_array(near), shuffled):
        solves.clear()
        eig = hermitian_eig(m)
        assert not eig.plan.flip
        assert solves == [("eigh", k) for k in (8, 28, 56, 70, 56, 28, 8)]
        assert np.max(np.abs(eig.eigenvalues - np.linalg.eigvalsh(near))) < 1e-13 * 8


def test_spectrum_dense_spec_makes_six_eigvalsh_calls(tmp_path, solves):
    # the bench spectrum_dense spec: L=10 Heisenberg ring, sectors
    # 10, 45, 120, 210, 252, 210, ... solved as 10, 45, 120, 210, 126, 126,
    # eigenvalues only: the payload reads no eigenvector
    doc = {"schema_version": 1, "task": "spectrum",
           "model": {"name": "heisenberg", "params": {"J": -1.0}},
           "volume": {"dims": [10], "boundary": "periodic"},
           "spectrum": {"method": "dense", "num_eigenvalues": 6}}
    payload = json.loads(run_spec(parse_spec_dict(doc), tmp_path).read_text())["payload"]
    assert sorted(k for _, k in solves) == [10, 45, 120, 126, 126, 210]
    assert {name for name, _ in solves} == {"eigvalsh"}
    assert payload["flip"] is True
    assert payload["block_sizes"] == [1, 10, 45, 120, 210, 252, 210, 120, 45, 10, 1]


def test_ground_basis_is_solved_on_first_read_from_the_ground_blocks(tmp_path, solves):
    # the L=10 antiferromagnetic ring: its singlet lies in the self-mirrored
    # m = 0 sector, so reading basis makes the two eigh calls of its halves
    # and no other; a spectrum or a scan reads no basis and calls no eigh
    h = build_model_hamiltonian("heisenberg", {"J": -1.0}, chain_volume(10, "periodic")).tocsr()
    low = spectra.low_levels(h, method="dense")
    assert {name for name, _ in solves} == {"eigvalsh"}
    solves.clear()
    basis = low.basis
    assert solves == [("eigh", 126), ("eigh", 126)]
    assert low.basis is basis and len(solves) == 2
    assert np.array_equal(basis, spectra.low_levels(EigenSystem(h)).basis)
    solves.clear()
    for task, section, model in (
            ("spectrum", {"method": "dense"}, {"name": "heisenberg", "params": {"J": -1.0}}),
            ("scan", {"variable": "J", "values": [-1.0, 0.5]}, {"name": "heisenberg", "params": {}})):
        doc = {"schema_version": 1, "task": task, "model": model,
               "volume": {"dims": [10], "boundary": "periodic"}, task: section}
        run_spec(parse_spec_dict(doc), tmp_path / task)
    assert solves and {name for name, _ in solves} == {"eigvalsh"}


def test_flip_partner_blocks_are_reversed_copies():
    # the mirror of a solved block has the reversed indices, the same
    # eigenvalues bit for bit, and the row-reversed vectors
    h = build_model_hamiltonian("heisenberg", {"J": 1.0}, chain_volume(8, "periodic")).tocsr()
    es = EigenSystem(h)
    n = es.dim
    first = {int(idx[0]): b for b, (idx, _, _) in enumerate(es.blocks)}
    partners = 0
    for idx, w, v in es.blocks[1:]:
        mirror_idx, mirror_w, mirror_v = es.blocks[first[int(n - 1 - idx[-1])]]
        assert np.array_equal(mirror_idx, (n - 1 - idx)[::-1])
        assert np.array_equal(mirror_w, w)
        if mirror_idx[0] != idx[0]:
            assert np.array_equal(mirror_v, v[::-1])
            partners += 1
        else:  # a self-mirrored block: every vector is even or odd under the flip
            assert np.all((v[::-1] == v).all(axis=0) | (v[::-1] == -v).all(axis=0))
    assert partners == 6  # three +-m sector pairs, each seen from both sides


def test_kms_terms_take_only_the_block_pairs_that_meet(case, monkeypatch):
    # pairs(a, among) yields exactly the chosen pairs of pairs(a), bit for
    # bit (lr_scan's mirror skip asks for such a subset), and kms_terms asks
    # for no pair: its flow side reads BA's diagonal blocks
    from spinmodels import states

    h, vol = case
    es = EigenSystem(h)
    asked = []
    original = spectra.EigenSystem.pairs

    def recording(self, a, among=None):
        out = list(original(self, a, among))
        asked.append({(b, c) for b, c, _ in out})
        return iter(out)

    for a, b in random_probe_pairs(vol, 19, 4) + [tuple(_observables(vol).values())]:
        full = {(p, q): x for p, q, x in es.pairs(a)}
        kb = {(p, q) for p, q, _ in es.pairs(b)}
        meet = {(p, q) for p, q in full if (q, p) in kb}
        for p, q, x in es.pairs(a, meet):
            want = full[p, q]
            assert (p, q) in meet and type(x) is type(want)
            assert np.array_equal(x.toarray() if sp.issparse(x) else x,
                                  want.toarray() if sp.issparse(want) else want)
        asked.clear()
        monkeypatch.setattr(spectra.EigenSystem, "pairs", recording)
        states.kms_terms(es, a, b)
        monkeypatch.undo()
        assert asked == []


# ---------------------------------------------------------------------------
# Flows under a flip-symmetric H: every coupled block pair is flowed, and an
# exactly flip-even or flip-odd operator keeps its parity to rounding
# ---------------------------------------------------------------------------

_MIRROR_RECORDS = [("heisenberg", {}), ("xy_field", {"h": 0.0}), ("ising", {"h": 0.0}), ("aklt", {})]
_MIRROR_CASES = [(name, params, boundary, length)
                 for name, params in _MIRROR_RECORDS for boundary in ("open", "periodic")
                 for length in ((4, 5) if name == "aklt" else (7, 8))]


@pytest.mark.parametrize("name, params, boundary, length", _MIRROR_CASES,
                         ids=[f"{n}-{b}-{k}" for n, _, b, k in _MIRROR_CASES])
def test_flip_symmetric_flows_match_full_eigh_and_keep_parity(name, params, boundary, length):
    # S3_0 is flip-odd, S1_0 flip-even, and a random bond operator and S1_0
    # with one entry one ulp off are neither; the flows of the first two are
    # odd and even to within 1e-14 scale
    assert {n for n, p, _ in _FLIP_CASES if n in ("heisenberg", "aklt") or p.get("h") == 0.0} \
        == {n for n, _ in _MIRROR_RECORDS}
    local_dim = MODELS[name].interaction(params).local_dim
    vol = chain_volume(length, boundary, local_dim=local_dim)
    h = build_model_hamiltonian(name, params, vol).tocsr()
    es = EigenSystem(h)
    assert es.plan.flip
    w, v, scale = _full_eigh(h)
    ops = _observables(vol)
    probe = random_probe_pairs(vol, 7, 2)[1][0]
    near = ops["s1"].copy()
    near.data[0] = np.nextafter(near.data[0].real, np.inf)
    cases = [(ops["s3"], -1), (ops["s1"], 1), (probe, 0), (near, 0)]
    for a, s in cases:
        assert spin_algebra._flip_parity(a) == s
        ad = a.toarray()
        for t, beta in ((0.7, 0.3), (1.9, 0.8)):
            u = (v * np.exp(-1j * t * w)) @ v.conj().T
            down, up = (v * np.exp(-beta * w)) @ v.conj().T, (v * np.exp(beta * w)) @ v.conj().T
            for want, flow in ((u.conj().T @ ad @ u, lambda x: es.evolve(x, t)),
                               (down @ ad @ up, lambda x: es.evolve_imaginary(x, beta))):
                got, dense = flow(a), flow(ad)
                assert np.max(np.abs(got.toarray() - want)) < 1e-13 * scale * max(1.0, np.max(np.abs(want)))
                assert np.array_equal(got.toarray(), dense)
                if s:
                    assert np.max(np.abs(dense[::-1, ::-1] - s * dense)) <= 1e-14 * scale
