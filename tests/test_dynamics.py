import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from spinmodels import (
    DegenerateInputError,
    DomainError,
    SolverError,
    EigenSystem,
    LRScan,
    Propagator,
    RANGE_LIMIT,
    RangeLimitError,
    assemble_hamiltonian,
    chain_volume,
    heisenberg,
    ising,
    kms_residual,
    lr_fit,
    lr_scan,
    spin_matrices,
)
from spinmodels import dynamics


def _chain_hamiltonian(length, j=-1.0, boundary="periodic"):
    vol = chain_volume(length, boundary=boundary)
    return assemble_hamiltonian(heisenberg(j=j), vol).toarray()


def test_zero_time_returns_input_unchanged():
    h = _chain_hamiltonian(3)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    out = EigenSystem(h).evolve(a, 0.0)
    assert np.array_equal(out, a)


def test_single_spin_phase_oracle():
    # [S3, S+] = S+ so conjugation just multiplies by a phase
    ops = spin_matrices(0.5)
    for t in (0.3, 1.0, -2.2):
        got = EigenSystem(ops.s3).evolve(ops.sp, t)
        assert np.allclose(got, np.exp(1j * t) * ops.sp, atol=1e-14)


def test_matches_expm_oracle():
    h = _chain_hamiltonian(3)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    t = 0.8
    u = scipy.linalg.expm(1j * t * h)
    want = u @ a @ u.conj().T
    assert np.allclose(EigenSystem(h).evolve(a, t), want, atol=1e-12)


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
    assert np.max(np.abs(EigenSystem(h).evolve(h, 1.3) - h)) < 1e-12


def test_imaginary_time_oracle_and_guard():
    ops = spin_matrices(0.5)
    es = EigenSystem(ops.s3)
    got = es.evolve_imaginary(ops.sm, 2.0)
    assert np.allclose(got, np.exp(2.0) * ops.sm, atol=1e-13)
    with pytest.raises(RangeLimitError):
        es.evolve_imaginary(ops.sm, 1e4)


def test_range_limit_holds_at_its_boundary_on_every_route():
    # H = S3 has spread exactly 1, so |beta| = RANGE_LIMIT is the largest
    # admissible imaginary time on every route and the next float is refused
    ops = spin_matrices(0.5)
    es = EigenSystem(ops.s3)
    routes = (lambda beta: es.evolve_imaginary(ops.sm, beta),
              lambda beta: es.evolve_imaginary(ops.sm, -beta),
              lambda beta: kms_residual(ops.s3, beta, ops.sp, ops.sm))
    for route in routes:
        assert np.isfinite(route(RANGE_LIMIT)).all()
        with pytest.raises(RangeLimitError):
            route(np.nextafter(RANGE_LIMIT, np.inf))
    got = EigenSystem(ops.s3).evolve_imaginary(ops.sm, RANGE_LIMIT)
    assert abs(got[1, 0] / np.exp(RANGE_LIMIT) - 1.0) < 1e-13
    assert kms_residual(es, RANGE_LIMIT, ops.sp, ops.sm) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_times_are_refused(bad):
    # nan > RANGE_LIMIT is False, so the range guard alone let a NaN beta
    # through to a NaN-filled result; every evolution refuses it up front
    ops = spin_matrices(0.5)
    es = EigenSystem(ops.s3)
    for call in (lambda: es.evolve(ops.sm, bad), lambda: es.evolve_imaginary(ops.sm, bad),
                 lambda: es.evolve_vector(np.array([1.0, 0.0]), bad)):
        with pytest.raises(DomainError, match="finite"):
            call()
    with pytest.raises(RangeLimitError):
        es.require_range(np.nan)


def test_state_evolution_phase_and_norm():
    h = _chain_hamiltonian(4)
    es = EigenSystem(h)
    w, v = np.linalg.eigh(h)
    # eigenstates only pick up a phase
    psi_t = es.evolve_vector(v[:, 0], 1.7)
    assert np.allclose(psi_t, np.exp(-1j * 1.7 * w[0]) * v[:, 0], atol=1e-12)
    rng = np.random.default_rng(17)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    psi_t = es.evolve_vector(psi, 2.4)
    assert abs(np.linalg.norm(psi_t) - 1.0) < 1e-12
    # Schroedinger and Heisenberg pictures agree
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    lhs = np.vdot(psi_t, a @ psi_t)
    rhs = np.vdot(psi, es.evolve(a, 2.4) @ psi)
    assert abs(lhs - rhs) < 1e-11


def test_state_evolution_through_an_eigensystem_at_any_size():
    # dim 8192 > DENSE_CUTOFF: an EigenSystem built under a cap of 8192 takes
    # its eigendecomposition and agrees with scipy's Krylov exponential action
    h = assemble_hamiltonian(heisenberg(j=-1.0), chain_volume(13, boundary="periodic"))
    rng = np.random.default_rng(31)
    psi = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    psi /= np.linalg.norm(psi)
    sparse = spla.expm_multiply(-1.3j * h, psi)
    dense = EigenSystem(h, cap_dense=h.shape[0]).evolve_vector(psi, 1.3)
    assert np.abs(dense - sparse).max() <= 1e-12


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
    )
    with pytest.raises(DegenerateInputError):
        lr_fit(scan)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lr_scan_refuses_a_non_finite_norm(bad):
    # a NaN passed the negativity and bound tests silently, and lr_fit then
    # blamed the input for having too few points above its floor
    with pytest.raises(SolverError, match="non-finite"):
        LRScan(times=[0, 1], distances=[1, 2], norms=[[0, 0], [bad, 0.1]],
               a_norm=0.5, b_norm=0.5)


def _hermitian_random(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x + x.conj().T


def _corner_norm(y, d):
    """||[Y, diag(d)]|| from a full SVD: of the corner when d takes two values."""
    values = np.unique(d)
    if values.size != 2:
        return np.linalg.norm(y * (d[None, :] - d[:, None]), 2)
    low = d == values[0]
    return (values[1] - values[0]) * np.linalg.svd(y[low][:, ~low], compute_uv=False)[0]


def test_block_norms_match_an_svd_of_each_corner():
    # rows with 3, 3 and 9 of 12 entries low (groups of two corner shapes,
    # each normed on its narrower side), a constant row and a three-valued row
    n, rng = 12, np.random.default_rng(7)
    rows = [np.where(np.arange(n) < k, -0.5, 0.5)[rng.permutation(n)] for k in (3, 3, 9)]
    rows += [np.full(n, 0.5), rng.integers(-1, 2, n) * 1.0]
    d = np.array(rows)
    for seed in range(3):
        y = _hermitian_random(n, seed)
        got = dynamics._block_norms(d)(y)
        want = [_corner_norm(y, row) for row in d]
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.linalg.norm(y, 2))
        assert got[3] == 0.0
        assert np.array_equal(dynamics._block_norms(d, batch=1)(y), got)


def test_block_norms_of_an_ill_scaled_corner():
    # corner entries about 1e-9 inside an O(1) block: the Gram's eigenvalue
    # is about 1e-18, and its square root still matches the SVD
    n, low = 10, np.arange(10) < 4
    y = _hermitian_random(n, 11)
    y[np.ix_(low, ~low)] *= 1e-9
    y[np.ix_(~low, low)] *= 1e-9
    d = np.where(low, -1.0, 1.0)[None, :]
    got = dynamics._block_norms(d)(y)[0]
    want = _corner_norm(y, d[0])
    assert 1e-10 < want < 1e-7
    assert abs(got - want) <= 1e-14 * max(1.0, np.linalg.norm(y, 2))
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("local_dim", [2, 3])
def test_a_tiny_batch_cap_changes_no_bit_of_a_scan(local_dim, monkeypatch):
    # one corner per stack instead of all of a block's corners in one; spin 1
    # has blocks with two-valued and with three-valued rows
    vol = chain_volume(8 if local_dim == 2 else 5, boundary="open", local_dim=local_dim)
    spin = (local_dim - 1) / 2.0
    s3 = spin_matrices(spin).s3
    args = (heisenberg(j=1.0, spin=spin), vol, s3, s3, (0.0, 0.5, 1.5), range(1, vol.num_sites))
    scan = lr_scan(*args)
    monkeypatch.setattr(dynamics, "_block_norms",
                        functools.partial(dynamics._block_norms, batch=1))
    assert np.array_equal(lr_scan(*args).norms, scan.norms)


def test_lr_scan_rejects_out_of_volume_distance():
    vol = chain_volume(4, boundary="open")
    ops = spin_matrices(0.5)
    with pytest.raises(DomainError):
        lr_scan(heisenberg(j=1.0), vol, ops.s3, ops.s3, (0.5,), (1, 4))


@pytest.mark.parametrize("times, distances", [((), (1,)), ((0.5,), ())])
def test_lr_scan_rejects_empty_grids(times, distances):
    s3 = spin_matrices(0.5).s3
    with pytest.raises(DomainError, match="nonempty"):
        lr_scan(heisenberg(j=1.0), chain_volume(4, boundary="open"), s3, s3, times, distances)


def test_propagator_requires_hermitian():
    assert Propagator is EigenSystem
    with pytest.raises(DomainError):
        Propagator(np.array([[0.0, 1.0], [0.0, 0.0]]))
