"""Closed-form bounds and resource counts against hand values and brute force."""

import math

import pytest

from hetqram.analytics import (
    BoundInputs,
    GoodFraction,
    bb_coherence_time,
    bb_coherence_time_by_distance,
    bb_infidelity_bound,
    bb_resources,
    expected_good_fraction,
    ft_coherence_time,
    ft_coherence_time_by_distance,
    ft_infidelity_bound,
    ft_resources,
    hetero_bound,
    k_factor,
    min_uniform_distance,
    qubit_router_delta,
    uniform_bb_infidelity,
    uniform_bb_query_time,
    uniform_qubit_delta,
    uniform_resources,
    vacuous,
)
from hetqram.noise import CycleCost, DistanceProfile, SurfaceParams, effective_distance

DEFAULTS = SurfaceParams(0.03, 0.1)


def inputs(n, p=0.1, c=2, s=1):
    return BoundInputs(n, SurfaceParams(0.03, p), CycleCost(c, s))


# -- uniform BB -------------------------------------------------------------


def test_uniform_bb_hand_value():
    # 4 * (0.03 * 1e-3) * (4*5*2*17) * 4
    assert uniform_bb_infidelity(inputs(4), 5) == pytest.approx(0.3264)


def test_uniform_bb_zero_at_p_zero():
    assert uniform_bb_infidelity(inputs(4, p=1e-12), 5) < 1e-30


def test_uniform_bb_quadratic_growth_in_n():
    # fixed d: bound(2n)/bound(n) = 2(1+8n)/(1+4n), quadratic overall
    for n in (4, 8, 16):
        ratio = uniform_bb_infidelity(inputs(2 * n), 5) / uniform_bb_infidelity(
            inputs(n), 5
        )
        assert ratio == pytest.approx(2 * (1 + 8 * n) / (1 + 4 * n))


def test_query_time_formula():
    assert uniform_bb_query_time(4, 5, CycleCost(2, 1)) == 680


# -- good fraction ----------------------------------------------------------


def test_good_fraction_no_noise():
    exact, approx = expected_good_fraction(
        inputs(4, p=1e-15), DistanceProfile.linear(4), lambda l: 100
    )
    assert exact.value == pytest.approx(1.0)
    assert approx.value == pytest.approx(1.0)


def test_good_fraction_single_level_half():
    inp = BoundInputs(1, SurfaceParams(0.5, 0.999999), CycleCost())
    # distance 1 and 2 both have d_e = 1: eps = 0.5 * p' ~ 0.5 at both levels
    exact, _ = expected_good_fraction(
        inp, DistanceProfile.linear(1), lambda l: 1 if l == 1 else 0
    )
    assert exact.value == pytest.approx(0.5, rel=1e-5)


def test_good_fraction_approx_close_to_exact():
    inp = inputs(10)
    prof = DistanceProfile.linear(10)
    coherence = lambda l: 10 * (10 - l + 1)
    exact, approx = expected_good_fraction(inp, prof, coherence)
    assert exact.value == pytest.approx(approx.value, rel=0.01)


def test_good_fraction_bounds_checked():
    with pytest.raises(ValueError):
        GoodFraction(1.5)


# -- K factor and generic hetero bound ---------------------------------------


def test_k_factor_zero_p():
    assert k_factor(inputs(10, p=1e-300), lambda d: d) == pytest.approx(0.0)


def test_k_factor_converges_for_polynomial_coherence():
    vals = [k_factor(inputs(n), lambda d: d) for d in [0] for n in (10, 20, 40, 80)]
    assert abs(vals[-1] - vals[-2]) < 1e-12
    assert abs(vals[1] - vals[0]) < abs(vals[0]) * 1e-3


def test_k_factor_constant_coherence_matches_geometric_series():
    # T_d = T: K(inf) = T * sum_d p^ceil(d/2) = T * 2p/(1-p) via pairing
    p = 0.07
    inp = BoundInputs(400, SurfaceParams(0.03, p), CycleCost())
    expect = 10.0 * 2 * p / (1 - p)
    assert k_factor(inp, lambda d: 10.0) == pytest.approx(expect, rel=1e-10)


def test_hetero_bound_basics():
    assert hetero_bound(inputs(5), lambda d: 0.0) == 0.0
    b20 = hetero_bound(inputs(20), lambda d: d**2)
    b40 = hetero_bound(inputs(40), lambda d: d**2)
    assert b40 >= b20
    assert b40 - b20 < 1e-6 * b20


def test_hetero_bound_monotone_in_n():
    vals = [hetero_bound(inputs(n), lambda d: d) for n in range(2, 12)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# -- FT coherence and bound ---------------------------------------------------


def test_ft_coherence_empty_at_leaves():
    assert ft_coherence_time(inputs(7), 7) == 0


def test_ft_coherence_hand_value_second_innermost():
    # single term i = n-1: (3)(2*2*c) + 2*s = 24c/... with c=2, s=1 -> 26
    assert ft_coherence_time(inputs(9), 8) == 26
    assert ft_coherence_time(inputs(4), 3) == 26


def test_ft_coherence_strictly_decreasing():
    inp = inputs(8)
    vals = [ft_coherence_time(inp, j) for j in range(9)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


def test_ft_coherence_by_distance_matches_by_level():
    inp = inputs(6)
    for j in range(7):
        d = 6 - j + 1
        assert ft_coherence_time_by_distance(inp, d) == ft_coherence_time(inp, j)


def test_ft_bound_zero_at_p_zero():
    e, c = ft_infidelity_bound(inputs(10, p=1e-300))
    assert e == pytest.approx(0.0) and c == pytest.approx(0.0)


def test_ft_bound_exact_vs_closed_form_within_1pct():
    for n in (20, 30):
        for p in (0.1, 0.05, 0.01):
            e, c = ft_infidelity_bound(inputs(n, p=p))
            assert e == pytest.approx(c, rel=0.01)


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("p", [1e-3, 0.1, 0.5])
def test_ft_closed_form_is_the_limit_of_the_exact_sum(c, s, p):
    """At n=200 the exact double sum has converged to double precision:
    even at p'=0.5 and c=3, s=2 its tail is about 1e-24 of the sum."""
    exact, closed = ft_infidelity_bound(inputs(200, p=p, c=c, s=s))
    assert closed == pytest.approx(exact, rel=1e-12, abs=0)


def test_ft_bound_converged_by_n40():
    b20 = ft_infidelity_bound(inputs(20))[0]
    b40 = ft_infidelity_bound(inputs(40))[0]
    assert 1.0 <= b40 / b20 <= 1.001


def test_ft_bound_brute_force_double_sum():
    inp = inputs(6, p=0.08, c=3, s=2)
    expect = 0.0
    for d in range(1, 8):
        inner = sum((dp + 1) * (2 * dp * 3 + 2) for dp in range(2, d + 1))
        expect += 0.08 ** effective_distance(d) * (d - 1) * inner
    expect *= 4 * 0.03
    assert ft_infidelity_bound(inp)[0] == pytest.approx(expect, rel=1e-12)


# -- BB coherence and bound ---------------------------------------------------


def test_bb_coherence_hand_values():
    assert bb_coherence_time(inputs(4), 4) == 16  # innermost: 2nc
    assert bb_coherence_time(inputs(4), 0) == 272
    inp = inputs(6)
    diffs = {
        bb_coherence_time(inp, i) - bb_coherence_time(inp, i + 1) for i in range(6)
    }
    assert diffs == {8 * 6 * 2}  # linear in d at fixed n


def test_bb_coherence_by_distance():
    inp = inputs(5)
    for i in range(6):
        assert bb_coherence_time_by_distance(inp, 5 - i + 1) == bb_coherence_time(inp, i)


def test_bb_bound_zero_at_p_zero():
    e, a = bb_infidelity_bound(inputs(10, p=1e-300))
    assert e == pytest.approx(0.0) and a == pytest.approx(0.0, abs=1e-100)


def test_bb_bound_exact_vs_asymptotic_2pct_n30():
    e, a = bb_infidelity_bound(inputs(30))
    assert e == pytest.approx(a, rel=0.02)


def test_bb_bound_linear_in_n():
    for n in (20, 40):
        r = bb_infidelity_bound(inputs(2 * n))[0] / bb_infidelity_bound(inputs(n))[0]
        assert r == pytest.approx(2.0, rel=0.01)


# -- resources ----------------------------------------------------------------


def test_ft_resources_hand_n1():
    assert ft_resources(1).physical_total == 48


def test_bb_resources_hand_n1():
    assert bb_resources(1).physical_total == 54


def test_ft_layer_table_n4():
    rows = ft_resources(4).per_layer
    assert rows[0] == (0, 6, 5)
    assert rows[1] == (1, 10, 4)
    assert rows[2] == (2, 16, 3)


def test_bb_layer_table_n4():
    rows = bb_resources(4).per_layer
    assert [r[1] for r in rows[:3]] == [3, 6, 12]


def test_resources_match_brute_force_loops():
    for n in (1, 3, 7, 12):
        ft_expect = 3 * sum(
            (1 << i) * (n - i + 2) * (n - i + 1) ** 2 for i in range(n + 1)
        )
        bb_expect = 9 * sum((1 << i) * (n - i + 1) ** 2 for i in range(n + 1))
        assert ft_resources(n).physical_total == ft_expect
        assert bb_resources(n).physical_total == bb_expect


def test_resource_asymptotes():
    assert ft_resources(30).physical_total / 2**30 == pytest.approx(192, rel=0.10)
    assert bb_resources(30).physical_total / 2**30 == pytest.approx(108, rel=0.10)
    assert ft_resources(40, efficient=True).physical_total / 2**40 == pytest.approx(
        153, rel=0.05
    )
    assert bb_resources(40, efficient=True).physical_total / 2**40 == pytest.approx(
        82, rel=0.05
    )


def test_resource_estimate_invariant_packing():
    est = bb_resources(5, efficient=True)
    assert est.physical_total == 3 * sum(l * d * d for _, l, d in est.per_layer)


def test_uniform_resources():
    assert uniform_resources(1, 1).physical_total == 36
    assert uniform_resources(10, 5).physical_total == 460800
    assert uniform_resources(6, 10).physical_total == 4 * uniform_resources(6, 5).physical_total


# -- equal-fidelity distance search -------------------------------------------


def test_min_distance_trivial_target():
    inp = inputs(4)
    at_d1 = uniform_bb_infidelity(inp, 1)
    assert min_uniform_distance(4, at_d1 * 1.01, inp) == 1


def test_min_distance_monotone_in_target():
    inp = inputs(8)
    targets = [1e-1, 1e-2, 1e-3, 1e-4]
    ds = [min_uniform_distance(8, t, inp) for t in targets]
    assert all(a <= b for a, b in zip(ds, ds[1:]))


def test_min_distance_failure():
    with pytest.raises(ValueError):
        min_uniform_distance(8, 1e-300, inputs(8), d_max=9)


def test_min_distance_steps_with_n():
    inp = [inputs(n) for n in range(5, 35)]
    targets = [bb_infidelity_bound(i)[1] for i in inp]
    ds = [min_uniform_distance(i.n, t, i) for i, t in zip(inp, targets)]
    assert all(a <= b for a, b in zip(ds, ds[1:]))
    assert len(set(ds)) > 1  # it actually steps


# -- qubit-router delta --------------------------------------------------------


def test_delta_zero_at_p_zero():
    assert qubit_router_delta("ft", inputs(10, p=1e-300)) == pytest.approx(0.0)
    assert qubit_router_delta("bb", inputs(10, p=1e-300)) == pytest.approx(0.0)


def test_delta_nonnegative():
    for n in (2, 5, 20):
        assert qubit_router_delta("ft", inputs(n)) >= 0.0
        assert qubit_router_delta("bb", inputs(n)) >= 0.0


def test_delta_ft_doubling_ratio_approaches_2():
    # T_d is n-free for block routing, so delta ~ n * const - const'
    r = qubit_router_delta("ft", inputs(80)) / qubit_router_delta("ft", inputs(40))
    assert 1.9 < r < 2.2


def test_delta_bb_doubling_ratio_is_4():
    # The sequential coherence time carries an explicit n factor, so the
    # formula as written scales as n^2 and the doubling ratio tends to 4.
    r = qubit_router_delta("bb", inputs(80)) / qubit_router_delta("bb", inputs(40))
    assert 3.8 < r < 4.3


def test_uniform_delta_formula():
    inp = inputs(6)
    d = 5
    expect = 0.03 * 0.1**3 * uniform_bb_query_time(6, d, inp.cost) * 36
    assert uniform_qubit_delta(inp, d) == pytest.approx(expect)


def test_vacuous_flag():
    assert vacuous(1.5)
    assert not vacuous(0.5)


def test_bounds_monotone_in_p_ratio():
    grid = [0.01, 0.03, 0.1, 0.3]
    for maker in (
        lambda i: uniform_bb_infidelity(i, 5),
        lambda i: ft_infidelity_bound(i)[0],
        lambda i: bb_infidelity_bound(i)[0],
    ):
        vals = [maker(inputs(8, p=p)) for p in grid]
        assert all(v >= 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
