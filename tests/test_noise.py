"""Noise model: effective distance, level rates, and sampling statistics."""

import numpy as np
import pytest

from hetqram.circuits import Gate, Layer, Schedule
from hetqram.noise import (
    CycleCost,
    DistanceProfile,
    NoiseModel,
    NoisePlan,
    PauliEvent,
    SurfaceParams,
    effective_distance,
    level_error_rate,
    logical_error_rate,
    net_flip_probability,
    sample_layer_errors,
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


def test_sample_zero_rates_empty():
    rng = np.random.default_rng(0)
    assert sample_layer_errors(rng, {0: 0.0, 3: 0.0}, cycles=5) == []


def test_sample_certain_x_only():
    rng = np.random.default_rng(0)
    events = sample_layer_errors(rng, [1.0, 1.0, 1.0], cycles=1, channel="x")
    assert events == [PauliEvent(0, "X"), PauliEvent(1, "X"), PauliEvent(2, "X")]


def test_sample_rounds_mean_matches_binomial():
    """Expected X count per qubit is cycles * rate / 2, within 3 sigma."""
    rate, cycles, draws = 0.2, 4, 100_000
    rng = np.random.default_rng(42)
    count = 0
    for _ in range(draws // 100):
        events = sample_layer_errors(rng, [rate] * 100, cycles=cycles)
        count += sum(1 for e in events if e.kind == "X")
    mean = count / draws
    expect = cycles * rate / 2
    sigma = np.sqrt(cycles * (rate / 2) * (1 - rate / 2) / draws)
    assert abs(mean - expect) < 3 * sigma


def test_aggregate_parity_probability():
    """Aggregate mode hits with the odd-parity probability of rounds mode."""
    rate, cycles, draws = 0.3, 5, 200_000
    q = net_flip_probability(rate, cycles)
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(draws // 1000):
        events = sample_layer_errors(
            rng, [rate] * 1000, cycles=cycles, mode="aggregate", channel="x"
        )
        hits += len(events)
    sigma = np.sqrt(q * (1 - q) / draws)
    assert abs(hits / draws - q) < 3 * sigma


def test_rounds_parity_matches_aggregate_probability():
    """Parity of rounds-mode X hits has the aggregate net-flip probability."""
    rate, cycles, draws = 0.4, 3, 50_000
    rng = np.random.default_rng(3)
    odd = 0
    for _ in range(draws):
        events = sample_layer_errors(rng, [rate], cycles=cycles, channel="x")
        odd += len(events) % 2
    q = net_flip_probability(rate, cycles)
    sigma = np.sqrt(q * (1 - q) / draws)
    assert abs(odd / draws - q) < 3 * sigma


def test_sampling_reproducible():
    a = sample_layer_errors(np.random.default_rng(123), [0.3, 0.7], cycles=9)
    b = sample_layer_errors(np.random.default_rng(123), [0.3, 0.7], cycles=9)
    assert a == b


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
        Layer((Gate.swap(0, 1),), code_cycles=5, noise_rounds=5, phase=0),
        Layer((Gate.x(1),), code_cycles=3, noise_rounds=3, phase=0),
        Layer((Gate.swap(1, 2),), code_cycles=2, noise_rounds=2, phase=1),
        Layer((Gate.x(0),), code_cycles=1, noise_rounds=1, phase=2),
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
