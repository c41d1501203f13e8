import numpy as np
import pytest
import scipy.linalg

from spinmodels import (
    DegenerateInputError,
    DomainError,
    EigenSystem,
    LRScan,
    Propagator,
    RangeLimitError,
    assemble_hamiltonian,
    chain_volume,
    evolve,
    evolve_imaginary,
    evolve_state,
    heisenberg,
    ising,
    lr_fit,
    lr_scan,
    spin_matrices,
)


def _chain_hamiltonian(length, j=-1.0, boundary="periodic"):
    vol = chain_volume(length, boundary=boundary)
    return assemble_hamiltonian(heisenberg(j=j), vol).toarray()


def test_zero_time_returns_input_unchanged():
    h = _chain_hamiltonian(3)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    out = evolve(h, a, 0.0)
    assert np.array_equal(out, a)


def test_single_spin_phase_oracle():
    # [S3, S+] = S+ so conjugation just multiplies by a phase
    ops = spin_matrices(0.5)
    for t in (0.3, 1.0, -2.2):
        got = evolve(ops.s3, ops.sp, t)
        assert np.allclose(got, np.exp(1j * t) * ops.sp, atol=1e-14)


def test_matches_expm_oracle():
    h = _chain_hamiltonian(3)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    t = 0.8
    u = scipy.linalg.expm(1j * t * h)
    want = u @ a @ u.conj().T
    assert np.allclose(evolve(h, a, t), want, atol=1e-12)


def test_group_law_and_automorphism():
    h = _chain_hamiltonian(3)
    rng = np.random.default_rng(13)
    prop = Propagator(h)
    for _ in range(5):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        s, t = rng.uniform(-2, 2, size=2)
        one = prop.evolve(prop.evolve(a, t), s)
        two = prop.evolve(a, s + t)
        assert np.max(np.abs(one - two)) < 1e-12
        # multiplicative and *-preserving
        ab = prop.evolve(a @ b, t)
        assert np.max(np.abs(ab - prop.evolve(a, t) @ prop.evolve(b, t))) < 1e-12
        astar = prop.evolve(a.conj().T, t)
        assert np.max(np.abs(astar - prop.evolve(a, t).conj().T)) < 1e-12


def test_energy_is_conserved():
    h = _chain_hamiltonian(3)
    assert np.max(np.abs(evolve(h, h, 1.3) - h)) < 1e-12


def test_imaginary_time_oracle_and_guard():
    ops = spin_matrices(0.5)
    got = evolve_imaginary(ops.s3, ops.sm, 2.0)
    assert np.allclose(got, np.exp(2.0) * ops.sm, atol=1e-13)
    with pytest.raises(RangeLimitError):
        evolve_imaginary(ops.s3, ops.sm, 1e4)
    # custom limit widens the admissible window
    out = evolve_imaginary(ops.s3, ops.sm, 7e2, range_limit=1e3)
    assert np.isfinite(out).all()


def test_state_evolution_phase_and_norm():
    h = _chain_hamiltonian(4)
    w, v = np.linalg.eigh(h)
    # eigenstates only pick up a phase
    psi_t = evolve_state(h, v[:, 0], 1.7)
    assert np.allclose(psi_t, np.exp(-1j * 1.7 * w[0]) * v[:, 0], atol=1e-12)
    rng = np.random.default_rng(17)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    psi_t = evolve_state(h, psi, 2.4)
    assert abs(np.linalg.norm(psi_t) - 1.0) < 1e-12
    # Schroedinger and Heisenberg pictures agree
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    lhs = np.vdot(psi_t, a @ psi_t)
    rhs = np.vdot(psi, evolve(h, a, 2.4) @ psi)
    assert abs(lhs - rhs) < 1e-11


def test_lr_scan_shape_and_zero_row():
    vol = chain_volume(6, boundary="open")
    ops = spin_matrices(0.5)
    times = (0.0, 0.3, 0.6)
    dists = (1, 2, 3, 4, 5)
    scan = lr_scan(heisenberg(j=1.0), vol, ops.s3, ops.s3, times, dists)
    assert scan.norms.shape == (3, 5)
    # disjoint supports commute exactly before any evolution
    assert np.all(scan.norms[0] == 0.0)
    assert np.all(scan.norms <= scan.bound + 1e-10)
    assert scan.bound == 2 * scan.a_norm * scan.b_norm
    # the front decays with distance at fixed time
    assert scan.norms[1, 0] > scan.norms[1, 3]


def test_lr_scan_light_cone_decay():
    vol = chain_volume(8, boundary="open")
    ops = spin_matrices(0.5)
    scan = lr_scan(heisenberg(j=1.0), vol, ops.s3, ops.s1, (0.5,), (1, 3, 5, 7))
    n = scan.norms[0]
    assert n[0] > n[1] > n[2] > n[3]  # strictly decaying outside the cone


def test_lr_scan_conserved_observable_never_spreads():
    # the Ising Hamiltonian is diagonal, so S3 commutes with it for all time
    vol = chain_volume(6, boundary="open")
    ops = spin_matrices(0.5)
    scan = lr_scan(ising(j=1.0, h=0.4), vol, ops.s3, ops.s3, (0.0, 0.7), (1, 2, 3))
    assert np.all(scan.norms == 0.0)


def test_lr_fit_recovers_positive_velocity():
    vol = chain_volume(8, boundary="open")
    ops = spin_matrices(0.5)
    scan = lr_scan(heisenberg(j=1.0), vol, ops.s3, ops.s3,
                   (0.25, 0.5, 1.0), (1, 2, 3, 4, 5, 6, 7))
    fit = lr_fit(scan)
    assert fit.velocity > 0
    assert fit.decay_rate > 0
    assert fit.max_violation <= 1e-8
    assert fit.points_used >= 3


def test_lr_fit_needs_enough_points():
    scan = LRScan(
        times=np.array([0.1]),
        distances=np.array([1, 2]),
        norms=np.array([[1e-16, 1e-16]]),  # everything below the floor
        a_norm=0.5,
        b_norm=0.5,
        metadata={},
    )
    with pytest.raises(DegenerateInputError):
        lr_fit(scan)


def test_lr_scan_rejects_out_of_volume_distance():
    vol = chain_volume(4, boundary="open")
    ops = spin_matrices(0.5)
    with pytest.raises(DomainError):
        lr_scan(heisenberg(j=1.0), vol, ops.s3, ops.s3, (0.5,), (1, 4))


def test_one_shot_helpers_accept_an_eigen_system():
    h = _chain_hamiltonian(3)
    es = EigenSystem(h)
    assert Propagator is EigenSystem
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    psi = rng.standard_normal(8) + 0j
    assert np.array_equal(evolve(es, a, 0.4), evolve(h, a, 0.4))
    assert np.array_equal(evolve_imaginary(es, a, 0.4), evolve_imaginary(h, a, 0.4))
    assert np.array_equal(evolve_state(es, psi, 0.4), evolve_state(h, psi, 0.4))


def test_propagator_requires_hermitian():
    with pytest.raises(DomainError):
        Propagator(np.array([[0.0, 1.0], [0.0, 0.0]]))
