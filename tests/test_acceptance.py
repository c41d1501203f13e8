"""Acceptance gate: twelve end-to-end checks with pinned tolerances and
runtime budgets.  Run with ``pytest -v`` to get one pass/fail line per
criterion.

Each test prints the measured quantity so a failure log carries the numbers.
"""

import json
import time

import numpy as np
import pytest

from spinmodels import (
    Propagator,
    aklt,
    assemble_hamiltonian,
    build_model_hamiltonian,
    chain_volume,
    commutator,
    eeb_deficit,
    full_spectrum,
    gibbs,
    ground_space,
    heisenberg,
    invariance_residual,
    kms_residual,
    lowest_eigenpairs,
    lr_fit,
    lr_scan,
    mixture,
    operator_norm,
    pauli_matrices,
    pure,
    random_probe_pairs,
    spectral_gap,
    spin_matrices,
    stability_value,
    suq2_generators,
    total_spin,
    two_point,
    xxz_suq2_chain,
)
from spinmodels.cli import parse_spec_dict, run_spec
from spinmodels.spin_algebra import eigenvector_columns

# the five bundled models with representative parameters, smallest usable sizes
_MODELS = (
    ("heisenberg", {"J": 1.0}),
    ("xy_field", {"h": 0.5}),
    ("ising", {"J": 1.0, "h": 0.4}),
    ("aklt", {}),
    ("xxz_suq2", {"q": 0.5}),
)


def _model_hamiltonian(name, params, length):
    local = 3 if name == "aklt" else 2
    vol = chain_volume(length, boundary="open", local_dim=local)
    return build_model_hamiltonian(name, params, vol), vol


def test_criterion_01_spin_algebra_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for two_s in (1, 2, 3, 4, 5):
        s = two_s / 2.0
        ops = spin_matrices(s)
        for a, b, c in ((ops.s1, ops.s2, ops.s3),
                        (ops.s2, ops.s3, ops.s1),
                        (ops.s3, ops.s1, ops.s2)):
            worst = max(worst, float(np.max(np.abs(a @ b - b @ a - 1j * c))))
        cas = ops.s1 @ ops.s1 + ops.s2 @ ops.s2 + ops.s3 @ ops.s3
        worst = max(worst, float(np.max(np.abs(cas - s * (s + 1) * np.eye(two_s + 1)))))
    half = spin_matrices(0.5)
    for sigma, s_op in zip(pauli_matrices(), (half.s1, half.s2, half.s3)):
        assert np.array_equal(sigma, 2.0 * s_op)  # exact, not just close
    elapsed = time.perf_counter() - t0
    print(f"[criterion 1] worst algebra residual {worst:.3e} (tol 1e-12), "
          f"{elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_hamiltonian_oracles():
    t0 = time.perf_counter()
    h2 = assemble_hamiltonian(heisenberg(j=1.0), chain_volume(2)).toarray()
    w2 = np.linalg.eigvalsh(h2)
    assert np.max(np.abs(w2 - np.array([-0.25, -0.25, -0.25, 0.75]))) <= 1e-12
    vol = chain_volume(4, boundary="periodic")
    h4 = assemble_hamiltonian(heisenberg(j=-1.0), vol).toarray()
    e0 = np.linalg.eigvalsh(h4)[0]
    elapsed = time.perf_counter() - t0
    print(f"[criterion 2] two-site spectrum exact; L=4 ring E0 {e0:.12f} "
          f"(target -2), {elapsed:.2f}s")
    assert abs(e0 - (-2.0)) <= 1e-10
    assert elapsed < 1.0


def test_criterion_03_su2_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for length in range(2, 9):
        for boundary in ("open", "periodic"):
            vol = chain_volume(length, boundary=boundary)
            h = assemble_hamiltonian(heisenberg(j=1.0), vol)
            for _, g in total_spin(vol):
                worst = max(worst, operator_norm(commutator(h, g)))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 3] max ||[H, S_total]|| {worst:.3e} (tol 1e-10), "
          f"{elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_04_suq2_invariance():
    t0 = time.perf_counter()
    worst_res, worst_min, kernel_ok = 0.0, 0.0, True
    for length in range(2, 7):
        vol = chain_volume(length, boundary="open")
        for q in (0.3, 0.5, 0.9, 1.0):
            h = xxz_suq2_chain(length, q)
            res = invariance_residual(h, suq2_generators(vol, q))
            worst_res = max(worst_res, res)
            w = np.linalg.eigvalsh(h.toarray())
            worst_min = min(worst_min, float(w[0]))
            kernel_ok &= int(np.sum(w < 1e-10)) == length + 1
    elapsed = time.perf_counter() - t0
    print(f"[criterion 4] max generator residual {worst_res:.3e} (tol 1e-10), "
          f"min eigenvalue {worst_min:.3e}, kernels L+1: {kernel_ok}, {elapsed:.2f}s")
    assert worst_res <= 1e-10
    assert worst_min >= -1e-10
    assert kernel_ok
    assert elapsed < 30.0


def test_criterion_05_kms_certification():
    t0 = time.perf_counter()
    worst = 0.0
    for i, (name, params) in enumerate(_MODELS):
        h, vol = _model_hamiltonian(name, params, 4)
        pairs = random_probe_pairs(vol, 1000 + i, 50)
        for beta in (0.1, 1.0, 10.0):
            for a, b in pairs:
                worst = max(worst, kms_residual(h, beta, a, b))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 5] max KMS residual over 750 trials/model-betas "
          f"{worst:.3e} (tol 1e-10), {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_06_eeb_certification():
    t0 = time.perf_counter()
    worst = np.inf
    worst_tracial = 0.0
    for i, (name, params) in enumerate(_MODELS):
        h, vol = _model_hamiltonian(name, params, 4)
        pairs = random_probe_pairs(vol, 2000 + i, 50)
        probes = [op for pair in pairs for op in pair]  # 100 operators
        for beta in (0.1, 1.0, 10.0):
            state = gibbs(h, beta).rho
            for x in probes:
                worst = min(worst, eeb_deficit(h, beta, x, state))
        state0 = gibbs(h, 0.0).rho
        for x in probes:
            worst_tracial = max(worst_tracial, abs(eeb_deficit(h, 0.0, x, state0)))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 6] min deficit {worst:.3e} (floor -1e-10); "
          f"beta=0 |deficit| max {worst_tracial:.3e} (tol 1e-12), {elapsed:.1f}s")
    assert worst >= -1e-10
    assert worst_tracial <= 1e-12
    assert elapsed < 60.0


def test_criterion_07_ground_state_stability():
    t0 = time.perf_counter()
    worst = np.inf
    for i, (name, params) in enumerate(_MODELS):
        h, vol = _model_hamiltonian(name, params, 6)
        gs = ground_space(h)
        state = mixture(gs.basis)
        pairs = random_probe_pairs(vol, 3000 + i, 50)
        for pair in pairs:
            for a in pair:
                worst = min(worst, stability_value(h, state, a))
    # designed counterexample: |gs><top| on the highest state of a dimer
    h2 = assemble_hamiltonian(heisenberg(j=1.0), chain_volume(2)).toarray()
    v = eigenvector_columns(full_spectrum(h2))
    a = np.outer(v[:, 0], v[:, 3].conj())
    witness = stability_value(h2, pure(v[:, 3]), a)
    elapsed = time.perf_counter() - t0
    print(f"[criterion 7] min stability value {worst:.3e} (floor -1e-12); "
          f"witness {witness:.3f} (< -0.01), {elapsed:.1f}s")
    assert worst >= -1e-12
    assert witness < -0.01
    assert elapsed < 30.0


def test_criterion_08_lieb_robinson():
    t0 = time.perf_counter()
    vol = chain_volume(10, boundary="open")
    ops = spin_matrices(0.5)
    scan = lr_scan(heisenberg(j=1.0), vol, ops.s3, ops.s3,
                   (0.0, 0.25, 0.5, 1.0), tuple(range(1, 10)))
    fit = lr_fit(scan)
    elapsed = time.perf_counter() - t0
    print(f"[criterion 8] t=0 row exact zeros: {bool(np.all(scan.norms[0] == 0.0))}; "
          f"v {fit.velocity:.3f}, c {fit.decay_rate:.3f}, "
          f"violation {fit.max_violation:.2e}, {elapsed:.1f}s")
    assert np.all(scan.norms[0] == 0.0)          # exact, by construction
    assert np.all(scan.norms <= scan.bound + 1e-12)
    assert fit.velocity > 0
    assert fit.decay_rate > 0
    assert fit.max_violation <= 1e-8
    assert elapsed < 120.0


def test_criterion_09_afm_energy_extrapolation():
    t0 = time.perf_counter()
    bethe = 0.25 - np.log(2.0)
    lengths = (8, 10, 12)
    per_site = []
    for length in lengths:
        vol = chain_volume(length, boundary="periodic")
        h = assemble_hamiltonian(heisenberg(j=-1.0), vol).tocsr()
        res = lowest_eigenpairs(h, 1)
        per_site.append(float(res.eigenvalues[0]) / length)
    x = np.array([1.0 / length ** 2 for length in lengths])
    slope, intercept = np.polyfit(x, per_site, 1)
    elapsed = time.perf_counter() - t0
    print(f"[criterion 9] e(L) {[f'{e:.6f}' for e in per_site]}, "
          f"extrapolated {intercept:.6f} vs Bethe {bethe:.6f} "
          f"(window 0.01), {elapsed:.1f}s")
    assert abs(intercept - bethe) < 0.01
    assert elapsed < 300.0


def _aklt_ring_summary(length):
    vol = chain_volume(length, boundary="periodic", local_dim=3)
    h = assemble_hamiltonian(aklt(), vol)
    gs = ground_space(h)
    gap = spectral_gap(h)
    state = pure(gs.basis[:, 0])
    corr = [two_point(state, (0,), (r,), vol, kind="sdots").real
            for r in range(1, length // 2 + 1)]
    return gs, gap, corr


def _aklt_closed_form(length, r):
    # ring two-point function of the valence-bond ground state
    a = (-1.0 / 3.0) ** r + (-1.0 / 3.0) ** (length - r)
    return 4.0 * a / (1.0 + 3.0 * (-1.0 / 3.0) ** length)


def test_criterion_10_aklt_ring_properties():
    t0 = time.perf_counter()
    results = {}
    for length in (6, 8):
        gs, gap, corr = _aklt_ring_summary(length)
        assert abs(gs.energy) <= 1e-10
        assert gs.degeneracy == 1
        assert gap > 0.3
        for r, c in enumerate(corr, start=1):
            assert abs(c - _aklt_closed_form(length, r)) < 1e-6
        results[length] = (gs.energy, gap, corr)
    # successive-distance ratios approach -1/3 away from the antipode
    ratios6 = [results[6][2][1] / results[6][2][0]]            # r = 1
    ratios8 = [results[8][2][1] / results[8][2][0],            # r = 1
               results[8][2][2] / results[8][2][1]]            # r = 2
    for ratio in ratios6 + ratios8:
        assert abs(ratio - (-1.0 / 3.0)) < 0.05
    # the L=6, r=2 pair is the antipodal ratio, exactly -3/5 on a ring
    anti = results[6][2][2] / results[6][2][1]
    assert abs(anti - (-0.6)) < 1e-9
    elapsed = time.perf_counter() - t0
    print(f"[criterion 10] gaps {results[6][1]:.4f}/{results[8][1]:.4f} (> 0.3); "
          f"ratios {[f'{r:.4f}' for r in ratios6 + ratios8]} within 0.05 of -1/3; "
          f"antipodal ratio {anti:.4f}, {elapsed:.1f}s")
    assert elapsed < 300.0


@pytest.mark.xfail(
    strict=True,
    reason="On a 6-ring the r=2 successive ratio is the antipodal pair, "
           "exactly -3/5; the 0.05 window around -1/3 cannot be met.",
)
def test_criterion_10_literal_ratio_window_all_r():
    for length in (6, 8):
        gs, gap, corr = _aklt_ring_summary(length)
        for r in (1, 2):
            ratio = corr[r] / corr[r - 1]
            assert abs(ratio - (-1.0 / 3.0)) < 0.05, (length, r, ratio)


def test_criterion_11_dynamics_group_law():
    t0 = time.perf_counter()
    vol = chain_volume(4, boundary="periodic")
    h = assemble_hamiltonian(heisenberg(j=1.0), vol).toarray()
    prop = Propagator(h)
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        s, t = rng.uniform(-2.0, 2.0, size=2)
        nested = prop.evolve(prop.evolve(a, t), s)
        direct = prop.evolve(a, s + t)
        worst = max(worst, operator_norm(nested - direct))
        prod = prop.evolve(a @ b, t)
        split = prop.evolve(a, t) @ prop.evolve(b, t)
        worst = max(worst, operator_norm(prod - split))
        star = prop.evolve(a.conj().T, t)
        worst = max(worst, operator_norm(star - prop.evolve(a, t).conj().T))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 11] worst group-law/automorphism defect {worst:.3e} "
          f"(tol 1e-10), {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_12_reproducibility(tmp_path):
    doc = {
        "schema_version": 1,
        "task": "verify",
        "model": {"name": "heisenberg", "params": {"J": -1.0}},
        "volume": {"dims": [4], "boundary": "periodic"},
        "verify": {"checks": ["algebra", "symmetry", "kms", "eeb", "stability"],
                   "betas": [0.5, 1.0], "num_probes": 10},
        "seed": 77,
        "output": {"json": "result.json"},
    }
    spec = parse_spec_dict(doc)
    p1 = run_spec(spec, tmp_path / "first")
    p2 = run_spec(spec, tmp_path / "second")
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    identical = b1 == b2
    print(f"[criterion 12] rerun byte-identical: {identical} "
          f"({len(b1)} bytes)")
    assert identical
    payload = json.loads(b1)["payload"]
    assert payload["all_ok"] is True
