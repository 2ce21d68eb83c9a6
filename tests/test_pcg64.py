"""kgorbit's own normal stream against numpy.random, its test-only oracle."""

import numpy as np
import pytest

import kgorbit._pcg64
from kgorbit import ModelParams, PerturbationSpec, build_spectrum, perturb_near_orbit
from kgorbit._pcg64 import NormalStream

SEEDS = list(range(2001)) + [2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]

R = 3.6541528853610088      # right edge of the ziggurat's base layer


def test_draws_match_numpy_at_every_length():
    for seed in SEEDS:
        for n in range(1, 17):
            assert NormalStream(seed).standard_normal(n) \
                == np.random.default_rng(seed).standard_normal(n).tolist(), (seed, n)


def test_consecutive_calls_continue_the_stream():
    # da then db, as perturb_near_orbit draws them from one generator
    for seed in SEEDS:
        n = 1 + seed % 16
        ours, numpy_rng = NormalStream(seed), np.random.default_rng(seed)
        assert ours.standard_normal(n) + ours.standard_normal(8) \
            == numpy_rng.standard_normal(n).tolist() + numpy_rng.standard_normal(8).tolist()


@pytest.mark.parametrize("seed", [20260810, 2 ** 64 - 1])
def test_long_stream_through_the_tail(seed):
    ours = NormalStream(seed).standard_normal(500_000)
    assert ours == np.random.default_rng(seed).standard_normal(500_000).tolist()
    # only layer 0's tail branch returns |x| > r
    assert sum(abs(x) > R for x in ours) > 0


def test_bench_pool_start_states_are_bit_identical(monkeypatch):
    # the start states of the benchmark's seeds 1-30 at each workload's
    # model, eta and amplitude, against the same draw through numpy
    cases = [(ModelParams(m=0.5, p=1, dim=1, cutoff=8), eta, eta ** 3)
             for eta in (0.1, 0.05, 0.02, 0.01)]
    cases += [(ModelParams(m=0.5, p=1, dim=1, cutoff=32), 0.05, 0.05 ** 3),
              (ModelParams(m=0.5, p=1, dim=3, cutoff=4, periods=(1.0, 1.0, 1.0)), 0.1, 1e-3)]
    for params, eta, amplitude in cases:
        table = build_spectrum(params)
        for seed in range(1, 31):
            spec = PerturbationSpec(amplitude=amplitude, mode_set=tuple(range(1, 9)),
                                    distribution="random_direction", seed=seed)
            ours = perturb_near_orbit(eta, spec, table)
            with monkeypatch.context() as patch:
                patch.setattr(kgorbit._pcg64, "NormalStream", np.random.default_rng)
                theirs = perturb_near_orbit(eta, spec, table)
            assert ours.a.tobytes() == theirs.a.tobytes(), (params.dim, eta, seed)
            assert ours.b.tobytes() == theirs.b.tobytes(), (params.dim, eta, seed)
