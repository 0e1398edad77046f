"""Noise model: effective distance, level rates, net flip odds, and the noise plan."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hetqram.circuits import Gate, Layer, Schedule
from hetqram.noise import (
    CycleCost,
    DistanceProfile,
    NoiseModel,
    NoisePlan,
    SurfaceParams,
    effective_distance,
    level_error_rate,
    logical_error_rate,
    net_flip_probability,
    trajectory_rng,
)


def test_effective_distance_odd_even():
    assert effective_distance(3) == 2
    assert effective_distance(4) == 2
    assert effective_distance(1) == 1
    assert effective_distance(2) == 1
    with pytest.raises(ValueError):
        effective_distance(0)


def test_logical_error_rate_hand_value():
    # 0.03 * 0.1^2 with d=3 (d_e = 2)
    params = SurfaceParams(epsilon_prime=0.03, p_ratio=0.1)
    assert logical_error_rate(params, 3) == pytest.approx(3e-4)


def test_logical_error_rate_small_p_limit():
    params = SurfaceParams(epsilon_prime=0.03, p_ratio=1e-9)
    assert logical_error_rate(params, 5) < 1e-20


def test_logical_error_rate_d1_equals_d2():
    params = SurfaceParams(0.03, 0.1)
    assert logical_error_rate(params, 1) == logical_error_rate(params, 2)


def test_logical_error_rate_monotone_and_strict_on_odd_steps():
    params = SurfaceParams(0.03, 0.1)
    rates = [logical_error_rate(params, d) for d in range(1, 12)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    for d in range(1, 9, 2):
        assert logical_error_rate(params, d) > logical_error_rate(params, d + 2)


def test_surface_params_validation():
    with pytest.raises(ValueError):
        SurfaceParams(epsilon_prime=0.0)
    with pytest.raises(ValueError):
        SurfaceParams(p_ratio=1.0)
    with pytest.raises(ValueError):
        SurfaceParams(p_ratio=0.0)


def test_cycle_cost_validation():
    assert CycleCost().c == 2 and CycleCost().s == 1
    with pytest.raises(ValueError):
        CycleCost(c=0)


def test_linear_profile_distances():
    prof = DistanceProfile.linear(4)
    assert prof.distances() == [5, 4, 3, 2, 1]


def test_odd_paired_profile_reads_1_1_3_3_from_leaves():
    prof = DistanceProfile.odd_paired(5)
    assert list(reversed(prof.distances())) == [1, 1, 3, 3, 5, 5]


def test_uniform_profile():
    prof = DistanceProfile.uniform(3, 7)
    assert prof.distances() == [7, 7, 7, 7]
    with pytest.raises(ValueError):
        DistanceProfile.uniform(3, 0)


def test_level_error_rate_linear_endpoints():
    params = SurfaceParams(0.03, 0.1)
    prof = DistanceProfile.linear(4)
    assert level_error_rate(params, prof, 0) == logical_error_rate(params, 5)
    assert level_error_rate(params, prof, 4) == logical_error_rate(params, 1)
    with pytest.raises(ValueError):
        level_error_rate(params, prof, 5)


def test_odd_paired_rates_match_linear_everywhere():
    params = SurfaceParams(0.03, 0.2)
    for n in (2, 5, 9):
        lin = DistanceProfile.linear(n)
        odd = DistanceProfile.odd_paired(n)
        for level in range(n + 1):
            assert level_error_rate(params, odd, level) == pytest.approx(
                level_error_rate(params, lin, level)
            )


@pytest.mark.parametrize(
    "p,k",
    [(0.3, 5), (0.4, 3), (0.1, 1), (1.5e-10, 7), (1.5e-6, 14), (1.5e-19, 14), (0.7, 3), (1.0, 4),
     (0.5, 1), (0.5, 4)],
)
@pytest.mark.filterwarnings("error")
def test_net_flip_probability_is_odd_binomial_parity(p, k):
    """The chance of an odd number of hits in k Bernoulli(p) rounds, against
    the exact sum of the odd binomial terms, with no warning. Tiny p (eps'
    p'^4 at p' below 1e-4, over a distance-7 phase) must keep its relative
    precision, not cancel to 0; a single-kind channel can put p above 1/2,
    and a clamped rate of 1 splits into X and Z rates of exactly 1/2."""
    pf = Fraction(p)
    exact = sum(math.comb(k, j) * pf**j * (1 - pf) ** (k - j) for j in range(1, k + 1, 2))
    got = net_flip_probability(p, k)
    assert isinstance(got, float)
    assert got == pytest.approx(float(exact), rel=1e-12, abs=0)
    assert np.array_equal(net_flip_probability(np.array([p, p]), k), [got, got])


def test_trajectory_rng_streams_differ_and_reproduce():
    x = trajectory_rng(99, 0).random(4)
    y = trajectory_rng(99, 1).random(4)
    z = trajectory_rng(99, 0).random(4)
    assert not np.allclose(x, y)
    assert np.allclose(x, z)


def test_noise_model_flat_rate_and_levels():
    params = SurfaceParams(0.03, 0.1)
    prof = DistanceProfile.linear(3)
    nm = NoiseModel(params, prof)
    rates = nm.per_qubit_rates([0, 3, 3])
    assert rates[0] == logical_error_rate(params, 4)
    assert rates[1] == logical_error_rate(params, 1)
    flat = NoiseModel(params, prof, flat_rate=0.01)
    assert np.all(flat.per_qubit_rates([0, 1, 2]) == 0.01)


class _LevelRates(NoiseModel):
    """A noise model with hand-picked per-level rates."""

    def __init__(self, rates, channel="xz"):
        super().__init__(SurfaceParams(), DistanceProfile.linear(len(rates) - 1), channel)
        self.rates = rates

    def rate_for_level(self, level):
        return self.rates[level]


def _plan_schedule():
    """q0 (level 0, input), q1 (level 1), q2 (level 2), q3 (level 1, never
    touched); phases 0, 0, 1, 2 with noise_rounds 5, 3, 2, 1."""
    layers = (
        Layer.of_gates((Gate.swap(0, 1),), code_cycles=5, noise_rounds=5, phase=0),
        Layer.of_gates((Gate.x(1),), code_cycles=3, noise_rounds=3, phase=0),
        Layer.of_gates((Gate.swap(1, 2),), code_cycles=2, noise_rounds=2, phase=1),
        Layer.of_gates((Gate.x(0),), code_cycles=1, noise_rounds=1, phase=2),
    )
    return Schedule(
        "bare", "qutrit", 2, (0, 1, 2, 1), ("address", "bus", "bus", "bus"), layers,
        DistanceProfile.linear(2), CycleCost(), (0, 0, 0, 0), input_qubits=(0,),
    )


def test_noise_plan_phase_ends_rounds_and_live_groups():
    sched = _plan_schedule()
    plan = NoisePlan(sched, _LevelRates([0.2, 0.3, 0.1]))
    # steps only at phase-end layers, with the phase's largest noise_rounds
    assert [(s.layer, s.rounds) for s in plan.steps] == [(1, 5), (2, 2), (3, 1)]
    # each qubit from its first active layer; q3 is never touched
    live = [
        [(g.level, g.first_active, g.qubits.tolist()) for g in s.groups] for s in plan.steps
    ]
    assert live == [
        [(0, 0, [0]), (1, 0, [1])],
        [(0, 0, [0]), (1, 0, [1]), (2, 2, [2])],
        [(0, 0, [0]), (1, 0, [1]), (2, 2, [2])],
    ]
    g = plan.steps[0].groups[0]
    assert (g.rate, g.px, g.pz) == (0.2, 0.1, 0.1)


def test_noise_plan_skips_zero_rate_levels_and_splits_channels():
    sched = _plan_schedule()
    plan = NoisePlan(sched, _LevelRates([0.2, 0.0, 0.1], channel="z"))
    assert [[g.level for g in s.groups] for s in plan.steps] == [[0], [0, 2], [0, 2]]
    assert [(g.px, g.pz) for g in plan.steps[-1].groups] == [(0.0, 0.2), (0.0, 0.1)]
    x_only = NoisePlan(sched, _LevelRates([0.2, 0.3, 0.1], channel="x"))
    assert [(g.px, g.pz) for g in x_only.steps[-1].groups] == [(0.2, 0.0), (0.3, 0.0), (0.1, 0.0)]
    silent = NoisePlan(sched, NoiseModel(SurfaceParams(), sched.profile, flat_rate=0.0))
    assert [s.groups for s in silent.steps] == [(), (), ()]
