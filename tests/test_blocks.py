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
    eeb_deficit,
    eeb_terms,
    embed,
    expectation,
    gibbs,
    heisenberg,
    kms_residual,
    lr_scan,
    random_probe_pairs,
    spin_matrices,
)
from spinmodels.cli import parse_spec_dict, run_spec
from spinmodels.interactions import MODEL_NAMES, MODELS

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


def test_to_eigenbasis_matches_dense_product(case):
    h, vol = case
    es = EigenSystem(h)
    v = es.eigenvectors
    for a in _observables(vol).values():
        want = v.conj().T @ a.toarray() @ v
        got = es.to_eigenbasis(a)
        assert sp.issparse(got)
        assert got.nnz <= _block_pair_bound(h, a)
        assert np.max(np.abs(got.toarray() - want)) < 1e-13
        assert np.max(np.abs(es.to_eigenbasis(a.toarray()) - want)) < 1e-13


def test_gibbs_state_and_kms_match_full_eigh(case):
    h, vol = case
    es = EigenSystem(h)
    w, v, scale = _full_eigh(h)
    pairs = random_probe_pairs(vol, 3, 4) + [tuple(_observables(vol).values())]
    for beta in (0.0, 0.5, 2.0):
        p = np.exp(-beta * (w - w[0]))
        want = (v * (p / p.sum())) @ v.conj().T
        state = gibbs(es, beta)
        assert np.max(np.abs(state.rho.matrix - want)) < 1e-13
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
    assert np.array_equal(gibbs(es, 0.7).rho.matrix, first.rho.matrix)


def test_evolve_vector_matches_full_eigh(case):
    h, _ = case
    es = EigenSystem(h)
    w, v, _ = _full_eigh(h)
    psi = np.random.default_rng(5).standard_normal(es.dim) + 0j
    want = (v * np.exp(-0.8j * w)) @ (v.conj().T @ psi)
    assert np.max(np.abs(es.evolve_vector(psi, 0.8) - want)) < 1e-12 * np.linalg.norm(psi)


def test_light_cone_scan_of_s1_matches_dense_reference(tmp_path):
    sec = {"times": [0.0, 0.5, 1.5], "distances": [1, 2, 3, 4, 5], "observable": "s1"}
    doc = {"schema_version": 1, "task": "dynamics",
           "model": {"name": "heisenberg", "params": {"J": 1.0}},
           "volume": {"dims": [6], "boundary": "open"}, "dynamics": sec,
           "output": {"json": "scan.json", "csv": "scan.csv"}}
    payload = json.loads(run_spec(parse_spec_dict(doc), tmp_path).read_text())["payload"]
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


def test_light_cone_scan_refuses_non_hermitian_observables():
    ops = spin_matrices(0.5)
    with pytest.raises(DomainError):
        lr_scan(heisenberg(), chain_volume(4, "open"), ops.sp, ops.s3, (0.5,), (1,))


def test_operators_are_evolved_without_the_dense_eigenvector_matrix(case, monkeypatch):
    h, vol = case
    es = EigenSystem(h)
    monkeypatch.setattr(EigenSystem, "eigenvectors", property(lambda self: pytest.fail(
        "read the dense eigenvector matrix")))
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
    # the evolved operator fills its block pairs, so they take the route
    # through A_bc; the local observables and probes mostly gather
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


def test_kms_and_evolve_never_densify_the_full_matrix(case, forbid_full_toarray):
    h, vol = case
    es = EigenSystem(h)
    forbid_full_toarray(es.dim)
    pairs = random_probe_pairs(vol, 17, 4) + [tuple(_observables(vol).values())]
    for a, b in pairs:
        assert kms_residual(es, 0.8, a, b) < 1e-12
        assert sp.issparse(es.evolve(a, 0.6)) and sp.issparse(es.evolve_imaginary(b, 0.4))
