"""Bundled interactions against independently constructed Hamiltonians.

Every reference here is built in the test itself — explicit Pauli blocks,
np.kron chains, or classical configuration sums — never through the code
under test.
"""

import itertools

import numpy as np
import pytest

from spinmodels import (
    DimensionMismatchError,
    DomainError,
    Interaction,
    aklt,
    assemble_hamiltonian,
    build_model_hamiltonian,
    build_volume,
    chain_volume,
    empty,
    heisenberg,
    invariance_residual,
    ising,
    lambda_norm,
    resolve_q,
    spin_matrices,
    xxz_suq2,
    xxz_suq2_chain,
    xy_field,
)
from spinmodels.cli import parse_spec_dict
from spinmodels.interactions import MODEL_NAMES, MODELS

I2 = np.eye(2)
SP = np.array([[0, 1], [0, 0]], dtype=complex)


def _kron(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = np.kron(out, m)
    return out


def _heisenberg_reference(length, j, periodic):
    """-J sum_x S_x . S_{x+1} assembled from scratch with np.kron."""
    ops = spin_matrices(0.5)
    h = np.zeros((2 ** length, 2 ** length), dtype=complex)
    bonds = [(x, x + 1) for x in range(length - 1)]
    if periodic and length > 2:
        bonds.append((length - 1, 0))
    for x, y in bonds:
        for comp in (ops.s1, ops.s2, ops.s3):
            factors = [I2] * length
            factors[x] = comp
            factors[y] = comp
            h -= j * _kron(*factors)
    return h


def test_heisenberg_two_site_spectrum():
    vol = chain_volume(2)
    h = assemble_hamiltonian(heisenberg(j=1.0), vol).toarray()
    w = np.linalg.eigvalsh(h)
    # ferromagnetic coupling: triplet at -J/4, singlet at 3J/4
    assert np.allclose(w, [-0.25, -0.25, -0.25, 0.75], atol=1e-12)
    h_afm = assemble_hamiltonian(heisenberg(j=-1.0), vol).toarray()
    w_afm = np.linalg.eigvalsh(h_afm)
    assert np.allclose(w_afm, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_heisenberg_matches_kron_reference():
    for length, j, periodic in ((3, 1.0, False), (4, -1.0, True), (5, 0.7, True)):
        vol = chain_volume(length, boundary="periodic" if periodic else "open")
        got = assemble_hamiltonian(heisenberg(j=j), vol).toarray()
        want = _heisenberg_reference(length, j, periodic)
        assert np.allclose(got, want, atol=1e-14)


def test_afm_ring_ground_energy_is_minus_two():
    # L=4 periodic antiferromagnet: E0 = -2 (independent kron assembly)
    want = np.linalg.eigvalsh(_heisenberg_reference(4, -1.0, True))[0]
    assert abs(want - (-2.0)) < 1e-12
    vol = chain_volume(4, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol).toarray()
    assert abs(np.linalg.eigvalsh(h)[0] - (-2.0)) < 1e-12


def test_heisenberg_spin_one_uses_larger_local_space():
    inter = heisenberg(j=1.0, spin=1)
    assert inter.local_dim == 3
    vol = chain_volume(2, local_dim=3)
    h = assemble_hamiltonian(inter, vol).toarray()
    # two spin-1 sites: S.S eigenvalues from total spin 0,1,2 are -2,-1,1
    w = np.linalg.eigvalsh(h)
    assert np.allclose(sorted(set(np.round(w, 10))), [-1.0, 1.0, 2.0])


def test_heisenberg_rejects_zero_coupling():
    with pytest.raises(DomainError):
        heisenberg(j=0.0)


def test_ising_classical_enumeration():
    # diagonal model: compare every matrix element with a classical energy sum
    j, h_field, length = 1.0, 0.4, 3
    vol = chain_volume(length)
    got = assemble_hamiltonian(ising(j=j, h=h_field), vol).toarray()
    assert np.allclose(got, np.diag(np.diag(got)))  # strictly diagonal
    diag = []
    for bits in itertools.product((0.5, -0.5), repeat=length):
        e = -j * sum(bits[x] * bits[x + 1] for x in range(length - 1))
        e -= h_field * sum(bits)
        diag.append(e)
    assert np.allclose(np.diag(got).real, diag, atol=1e-14)
    # at h=0 the two aligned configurations tie for the ground state
    got0 = assemble_hamiltonian(ising(j=j, h=0.0), vol).toarray()
    w = np.linalg.eigvalsh(got0)
    assert abs(w[0] - (-0.5)) < 1e-14 and abs(w[1] - (-0.5)) < 1e-14


def test_xy_field_reference():
    h_field = 0.3
    vol = chain_volume(2)
    got = assemble_hamiltonian(xy_field(h=h_field), vol).toarray()
    ops = spin_matrices(0.5)
    want = -(_kron(ops.s1, ops.s1) + _kron(ops.s2, ops.s2))
    want -= h_field * (_kron(ops.s3, I2) + _kron(I2, ops.s3))
    assert np.allclose(got, want, atol=1e-14)


def test_empty_interaction_gives_zero_hamiltonian():
    vol = chain_volume(3)
    h = assemble_hamiltonian(empty(), vol).toarray()
    assert np.all(h == 0)


def test_assembly_keeps_the_cap_the_volume_was_built_under():
    # the Hilbert-space cap is checked once, by build_volume; 2^17 > 65536
    vol = build_volume((17,), max_hilbert_dim=1 << 20)
    h = assemble_hamiltonian(empty(), vol)
    assert h.format == "csr" and h.shape == (1 << 17, 1 << 17) and h.nnz == 0


def test_aklt_bond_projector_properties():
    inter = aklt()
    p = inter.bond_term
    # projector onto the spin-2 sector of two spin-1 sites
    assert np.allclose(p @ p, p, atol=1e-13)
    assert abs(np.trace(p) - 5.0) < 1e-12
    w = np.linalg.eigvalsh(p)
    assert np.allclose(w[:4], 0.0, atol=1e-13)
    assert np.allclose(w[4:], 1.0, atol=1e-13)


def test_aklt_two_site_kernel():
    # spin-0 and spin-1 sectors of a single bond are annihilated: kernel dim 4
    vol = chain_volume(2, local_dim=3)
    h = assemble_hamiltonian(aklt(), vol).toarray()
    w = np.linalg.eigvalsh(h)
    assert np.sum(np.abs(w) < 1e-12) == 4
    assert np.min(w) > -1e-13  # positive semidefinite


def test_resolve_q_from_delta():
    assert resolve_q(q=0.5) == 0.5
    assert resolve_q(delta=1.0) == 1.0
    # delta = (q + 1/q)/2 inverts to q = delta - sqrt(delta^2 - 1)
    q = resolve_q(delta=2.0)
    assert abs(q - (2.0 - np.sqrt(3.0))) < 1e-14
    assert abs((q + 1.0 / q) / 2.0 - 2.0) < 1e-12
    for kwargs in ({}, {"q": 0.5, "delta": 2.0}, {"q": 0.0}, {"q": 1.5},
                   {"q": -0.2}, {"delta": 0.9}):
        with pytest.raises(DomainError):
            resolve_q(**kwargs)


def test_xxz_suq2_matches_kron_reference():
    # per bond: -(1/delta)(S1 S1 + S2 S2) - (S3 S3 - 1/4) + a (S3_{x+1} - S3_x)
    ops = spin_matrices(0.5)
    for length, q in ((2, 0.5), (4, 0.3), (5, 0.8)):
        delta = (q + 1 / q) / 2
        a = 0.5 * np.sqrt(1 - 1 / delta ** 2)
        want = np.zeros((2 ** length, 2 ** length), dtype=complex)
        for x in range(length - 1):
            def at(*pairs):
                factors = [I2] * length
                for site, op in pairs:
                    factors[site] = op
                return _kron(*factors)
            want -= (at((x, ops.s1), (x + 1, ops.s1)) + at((x, ops.s2), (x + 1, ops.s2))) / delta
            want -= at((x, ops.s3), (x + 1, ops.s3)) - np.eye(2 ** length) / 4
            want += a * (at((x + 1, ops.s3)) - at((x, ops.s3)))
        got = assemble_hamiltonian(xxz_suq2(q), chain_volume(length, "open")).toarray()
        assert np.allclose(got, want, atol=1e-14)
        assert np.array_equal(xxz_suq2_chain(length, q).toarray(), got)


def test_xxz_single_bond_spectrum():
    # L=2, q=1/2: eigenvalues {0, 0, 0, 1} worked out by hand
    h = xxz_suq2_chain(2, 0.5).toarray()
    w = np.linalg.eigvalsh(h)
    assert np.allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_xxz_isotropic_point_matches_heisenberg_exactly():
    # q=1 removes the boundary field and the anisotropy, leaving the
    # ferromagnetic chain shifted so its top multiplet sits at zero;
    # all entries are dyadic, so the comparison is bitwise
    length = 5
    h_xxz = xxz_suq2_chain(length, 1.0).toarray()
    vol = chain_volume(length, boundary="open")
    h_ferro = assemble_hamiltonian(heisenberg(j=1.0), vol).toarray()
    shift = (length - 1) / 4.0
    assert np.array_equal(h_xxz, h_ferro + shift * np.eye(2 ** length))


def test_xxz_positive_semidefinite_with_kernel():
    for length, q in ((3, 0.4), (4, 0.8), (5, 0.6)):
        h = xxz_suq2_chain(length, q).toarray()
        w = np.linalg.eigvalsh(h)
        assert w[0] > -1e-12
        assert np.sum(w < 1e-10) == length + 1  # kernel dimension L+1


def test_assemble_rejects_local_dim_mismatch():
    vol = chain_volume(2, local_dim=3)
    with pytest.raises(DimensionMismatchError):
        assemble_hamiltonian(heisenberg(j=1.0), vol)


def test_lambda_norm_values():
    # lambda = 0, one dimension: ||site|| + 2 ||bond||
    assert abs(lambda_norm(heisenberg(j=1.0), 0.0) - 1.5) < 1e-12
    assert abs(lambda_norm(ising(j=1.0, h=0.5), 0.0) - 0.75) < 1e-12
    # the weight grows like e^lambda for sites and e^{2 lambda} for bonds
    val = lambda_norm(ising(j=1.0, h=0.5), 0.1)
    want = np.exp(0.1) * 0.25 + 2 * np.exp(0.2) * 0.25
    assert abs(val - want) < 1e-12


def test_model_interaction_dispatch():
    inter = MODELS["heisenberg"].interaction({"J": -1.0})
    assert inter.name == "heisenberg"
    inter = MODELS["ising"].interaction({"J": 1.0, "h": 0.2})
    assert inter.name == "ising" and inter.site_term is not None
    with pytest.raises(DomainError):
        MODELS["heisenberg"].interaction({"J": 1.0, "bogus": 3})
    with pytest.raises(DomainError):
        build_model_hamiltonian("nope", {}, chain_volume(2))


def test_build_model_hamiltonian_xxz_requires_open_chain():
    vol = chain_volume(4, boundary="periodic")
    with pytest.raises(DomainError):
        build_model_hamiltonian("xxz_suq2", {"q": 0.5}, vol)
    vol2 = build_volume((2, 2), boundary="open")
    with pytest.raises(DomainError):
        build_model_hamiltonian("xxz_suq2", {"q": 0.5}, vol2)


def test_build_model_hamiltonian_matches_assemble():
    vol = chain_volume(4, boundary="periodic")
    via_name = build_model_hamiltonian("heisenberg", {"J": -1.0}, vol).toarray()
    direct = assemble_hamiltonian(heisenberg(j=-1.0), vol).toarray()
    assert np.array_equal(via_name, direct)


# representative values of every scannable parameter
_PARAM_VALUES = {"J": [-1.0, 0.5], "h": [0.0, 0.3], "q": [0.5, 1.0], "delta": [1.0, 2.0]}
_MODEL_PARAMS = {"xy_field": {"h": 0.3}, "ising": {"h": 0.4}, "xxz_suq2": {"q": 0.5}}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_registry_record(name):
    model = MODELS[name]
    params = _MODEL_PARAMS.get(name, {})
    inter = model.interaction(params)
    assert inter.name == name
    vol = chain_volume(4, "open", local_dim=inter.local_dim)
    h = build_model_hamiltonian(name, params, vol)
    assert np.array_equal(h.toarray(), assemble_hamiltonian(inter, vol).toarray())
    gens = model.symmetry(params, vol)
    assert len(gens.generators) >= 1
    assert invariance_residual(h, gens) <= 1e-10
    periodic = chain_volume(4, "periodic", local_dim=inter.local_dim)
    if model.open_chain_only:
        with pytest.raises(DomainError):
            model.check_volume(periodic)
    else:
        model.check_volume(periodic)
    with pytest.raises(DomainError):
        model.interaction({"bogus": 1.0})
    for variable in model.scan_variables:
        fixed = {k: v for k, v in params.items() if k not in model.scan_variables}
        doc = {
            "task": "scan",
            "model": {"name": name, "params": fixed},
            "volume": {"dims": [4], "boundary": "open"},
            "scan": {"variable": variable, "values": _PARAM_VALUES[variable]},
        }
        spec = parse_spec_dict(doc)
        assert spec.params["variable"] == variable


def _complex_spin(two_s):
    """(S1, S2, S3) of spin two_s/2 as explicitly complex128 matrices, built
    from the ladder coefficients."""
    n, m = two_s + 1, two_s / 2 - np.arange(two_s + 1)
    up = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        up[i, i + 1] = np.sqrt(two_s / 2 * (two_s / 2 + 1) - m[i] * (m[i] - 1))
    down = up.conj().T
    return (up + down) / 2, (up - down) / 2j, np.diag(m).astype(complex)


def _complex_terms(name, params):
    """(local dim, site term, bond term) of a record in the form
    S1 S1 + S2 S2 + S3 S3 of complex spin matrices."""
    two_s = 2 if name == "aklt" else round(2 * params.get("spin", 0.5))
    s1, s2, s3 = _complex_spin(two_s)
    n = two_s + 1
    xy = np.kron(s1, s1) + np.kron(s2, s2)
    if name == "heisenberg":
        return n, None, -params["J"] * (xy + np.kron(s3, s3))
    if name == "xy_field":
        return n, -params["h"] * s3, -xy
    if name == "ising":
        return n, -params["h"] * s3, -params["J"] * np.kron(s3, s3)
    if name == "aklt":
        v = xy + np.kron(s3, s3)
        return n, None, v / 2 + (v @ v) / 6 + np.eye(9, dtype=complex) / 3
    delta = (params["q"] + 1 / params["q"]) / 2
    a, eye = 0.5 * np.sqrt(1 - 1 / delta**2), np.eye(2, dtype=complex)
    return n, None, (-(1 / delta) * xy - (np.kron(s3, s3) - np.eye(4, dtype=complex) / 4)
                     + a * (np.kron(eye, s3) - np.kron(s3, eye)))


_REAL_RECORDS = [("heisenberg", {"J": -1.0, "spin": 0.5}), ("heisenberg", {"J": 1.0, "spin": 1}),
                 ("xy_field", {"h": 0.3}), ("ising", {"J": 1.0, "h": 0.4}), ("aklt", {}),
                 ("xxz_suq2", {"q": 0.5})]
_REAL_CASES = [(name, params, boundary) for name, params in _REAL_RECORDS
               for boundary in ("open", "periodic")
               if boundary == "open" or not MODELS[name].open_chain_only]


@pytest.mark.parametrize("name, params, boundary", _REAL_CASES,
                         ids=[f"{n}-{p['spin']}-{b}" if "spin" in p else f"{n}-{b}"
                              for n, p, b in _REAL_CASES])
def test_every_record_assembles_a_float64_h_equal_to_its_complex_form(name, params, boundary):
    # the real form of each term (S+- for S1 S1 + S2 S2) gives the entries of
    # the complex form's real part: bit for bit, except AKLT, whose (S.S)^2 is
    # a real GEMM instead of a complex one
    assert {record for record, _ in _REAL_RECORDS} == set(MODEL_NAMES)
    n, site, bond = _complex_terms(name, params)
    vol = chain_volume(4 if n > 2 else 6, boundary, local_dim=n)
    h = build_model_hamiltonian(name, params, vol)
    want = assemble_hamiltonian(Interaction(n, site, bond), vol)
    assert h.dtype == np.float64 and want.dtype == np.complex128
    assert not want.data.imag.any()
    if name == "aklt":
        assert np.abs(h.toarray() - want.toarray().real).max() <= 1e-15
    else:
        assert np.array_equal(h.indptr, want.indptr) and np.array_equal(h.indices, want.indices)
        assert np.array_equal(h.data, want.data.real)
