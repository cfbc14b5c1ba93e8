"""The pure-Python streams of :mod:`repro.sim.rng` against numpy.

Each ``SimRng`` stream must draw exactly what numpy's
``default_rng(SeedSequence(seed, spawn_key=name bytes))`` draws, so every
seeded experiment reproduces the results recorded with numpy.  numpy is
only the oracle here; the simulator never imports it.
"""

import random

import pytest

from repro.analysis.stats import summarize
from repro.sim.rng import SimRng

np = pytest.importorskip("numpy")

SEEDS = [0, 1, 7, 42, 2**31 - 1, 2**40 + 5, 2**64 + 3]
NAMES = [
    "",
    "loss",
    "faults.down:sw0.2->nic2",
    "nbc_skew.12.29",
    "stream-name-of-forty-characters-exactly!",  # 40 characters
    "perte.réseau.δ",
]
# The last two sit far from a power of two, so Lemire's method rejects
# often (about half the 32-bit and a quarter of the 64-bit draws).
RANGES = [1, 2, 7, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**31 + 1, 3 * 2**61]


def oracle(seed, name):
    ss = np.random.SeedSequence(seed, spawn_key=tuple(name.encode("utf-8")))
    return np.random.default_rng(ss)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_mixed_draws_match(seed, name):
    ours = SimRng(seed).stream(name)
    ref = oracle(seed, name)
    script = random.Random(f"{seed}/{name}")
    for step in range(300):
        kind = script.choice(("random", "uniform", "integers"))
        if kind == "random":
            assert ours.random() == ref.random(), step
        elif kind == "uniform":
            low = script.uniform(-50.0, 50.0)
            high = low + script.uniform(0.5, 100.0)
            assert ours.uniform(low, high) == ref.uniform(low, high), step
        else:
            width = script.choice(RANGES)
            low = script.choice((0, -3, -(2**40), 17))
            got = ours.integers(low, low + width)
            want = int(ref.integers(low, low + width))
            assert got == want, (step, low, width)


def test_negative_seed_rejected_by_both():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1, spawn_key=tuple(b"loss"))
    with pytest.raises(ValueError):
        SimRng(-1).stream("loss")


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 20, 129, 1000])
def test_summarize_matches_numpy(n):
    rand = random.Random(n)
    samples = [rand.lognormvariate(3.0, 0.4) for _ in range(n)]
    arr = np.asarray(samples)
    stats = summarize(samples)
    assert stats.count == n
    assert stats.mean == pytest.approx(float(arr.mean()), rel=1e-12)
    want_std = float(arr.std(ddof=1)) if n > 1 else 0.0
    assert stats.std == pytest.approx(want_std, rel=1e-12)
    assert stats.minimum == float(arr.min())
    assert stats.maximum == float(arr.max())
    assert stats.p50 == float(np.percentile(arr, 50))
    assert stats.p95 == float(np.percentile(arr, 95))
