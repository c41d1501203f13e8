import numpy as np

from spinmodels import (
    chain_volume,
    embed,
    operator_norm,
    probes,
    random_local_operator,
    random_probe_pairs,
)


def test_random_local_operator_has_unit_norm():
    vol = chain_volume(4)
    rng = np.random.default_rng(1)
    for _ in range(10):
        op = random_local_operator(vol, rng)
        assert abs(operator_norm(op) - 1.0) < 1e-10


def test_probe_pairs_deterministic_by_seed():
    vol = chain_volume(4)
    a = random_probe_pairs(vol, 7, 6)
    b = random_probe_pairs(vol, 7, 6)
    assert len(a) == len(b) == 6
    for (a1, a2), (b1, b2) in zip(a, b):
        assert np.array_equal(a1.toarray(), b1.toarray())
        assert np.array_equal(a2.toarray(), b2.toarray())
    c = random_probe_pairs(vol, 8, 6)
    assert not np.array_equal(a[0][0].toarray(), c[0][0].toarray())


def test_probe_pairs_on_single_site_volume():
    vol = chain_volume(1)
    pairs = random_probe_pairs(vol, 5, 4)
    assert len(pairs) == 4  # no bonds to draw from, still serves site probes


def test_probe_pairs_without_b_draw_the_same_a_and_embed_only_a(monkeypatch):
    vol = chain_volume(5)
    full = random_probe_pairs(vol, 3, 6)
    calls = []
    monkeypatch.setattr(probes, "embed", lambda *args: calls.append(args) or embed(*args))
    only_a = random_probe_pairs(vol, 3, 6, embed_b=False)
    assert len(calls) == 6
    for (a, b), (a2, none) in zip(full, only_a):
        assert none is None and b is not None
        assert np.array_equal(a.toarray(), a2.toarray())
