"""Estimators, fits, comparison pipeline, and reports."""

import math
import sys

import numpy as np
import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from exact_oracle import exact_mean_fidelity

from hetqram.analytics import BoundInputs, bb_infidelity_bound, uniform_bb_infidelity
from hetqram.circuits import build_bb_hetero, build_schedule, build_uniform_bb
from hetqram.harness import (
    ComparisonRow,
    ConfigError,
    ExperimentConfig,
    ReportRow,
    ExperimentReport,
    ResourceLimitError,
    compare_resources,
    database_for,
    emit_report,
    estimate_infidelity,
    fit_scaling,
    infidelity_stats,
    load_report,
    matching_bound,
    report_to_csv,
    run_fidelities,
    run_sweep,
    wilson_interval,
)
from hetqram.noise import CycleCost, DistanceProfile, NoiseModel, SurfaceParams


def test_trajectory_monte_carlo_matches_exact_enumeration():
    """n=1 tree at flat rate 0.01: MC mean within 3 sigma of the exact oracle."""
    sched = build_bb_hetero(1, "qubit", [1, 0])
    noise = NoiseModel(SurfaceParams(), sched.profile, mode="aggregate", flat_rate=0.01)
    exact_infid = 1.0 - exact_mean_fidelity(sched, noise)
    fids = run_fidelities(sched, noise, 30_000, seed=21, batch_size=4096)
    mean, _, se = infidelity_stats(fids)
    assert abs(mean - exact_infid) < 3 * se


def test_estimate_deterministic():
    config = ExperimentConfig(trials=300, seed=11, n_values=(2,))
    sched = build_bb_hetero(2, "qutrit", database_for(config, 2))
    a = estimate_infidelity(config, sched)
    b = estimate_infidelity(config, sched)
    assert a == b


def test_estimate_zero_noise_limit():
    params = SurfaceParams(epsilon_prime=1e-12, p_ratio=1e-9)
    config = ExperimentConfig(trials=200, seed=1, n_values=(2,), params=params)
    sched = build_bb_hetero(2, "qutrit", database_for(config, 2))
    mean, (lo, hi) = estimate_infidelity(config, sched)
    assert (mean, lo, hi) == (0.0, 0.0, 0.0)


def test_superposition_cap_enforced():
    with pytest.raises(ResourceLimitError):
        run_fidelities(
            build_bb_hetero(11, "qutrit", [0] * 2048), None, 10, seed=0
        )


def test_wilson_interval_brackets():
    lo, hi = wilson_interval(0.0, 100)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(0.5, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(1.0, 100)
    assert hi == 1.0


def test_infidelity_stats_wilson_vs_normal():
    fids = np.full(500, 0.9)
    mean, (lo, hi), se = infidelity_stats(fids)
    assert mean == pytest.approx(0.1)
    assert lo < 0.1 < hi  # Wilson is strictly wider than a zero-variance normal
    fids = np.random.default_rng(0).uniform(0.85, 0.95, size=20_000)
    mean, (lo, hi), se = infidelity_stats(fids)
    assert hi - lo == pytest.approx(2 * 1.959963984540054 * se, rel=1e-9)


# -- scaling fits -------------------------------------------------------------


def test_fit_exact_square_law():
    pts = [(n, float(n) ** 2) for n in (2, 3, 4, 5, 6)]
    slope, r2 = fit_scaling(pts)
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert r2 == pytest.approx(1.0)


def test_fit_constant_data():
    slope, r2 = fit_scaling([(n, 0.5) for n in (2, 3, 4, 5)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_excludes_nonpositive_with_warning():
    pts = [(2, 4.0), (3, 9.0), (4, 0.0), (5, 25.0), (6, 36.0)]
    with pytest.warns(UserWarning):
        slope, _ = fit_scaling(pts)
    assert slope == pytest.approx(2.0, abs=1e-9)


def test_fit_needs_enough_points():
    with pytest.raises(ValueError):
        fit_scaling([(2, 1.0), (3, 2.0), (4, 3.0)])
    with pytest.raises(ValueError), pytest.warns(UserWarning):
        fit_scaling([(2, 0.0), (3, 0.0), (4, 0.0), (5, 2.0)])


# -- sweep, bounds, comparison --------------------------------------------------


def test_run_sweep_rows_and_bounds():
    config = ExperimentConfig(
        architectures=("bb-hetero", "walker"),
        router_kind="qubit",
        n_values=(2, 3),
        trials=150,
        seed=9,
    )
    report = run_sweep(config)
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.ci95_low <= row.mean_infidelity <= row.ci95_high
        assert row.analytic_bound >= 0.0
        if row.architecture == "walker":
            assert row.router_kind == "qutrit"
    assert [(r.architecture, r.router_kind, r.n) for r in report.rows] == [
        (arch, kind, n) for arch, kind, n, _ in config.points()]


def test_points_keep_report_order_and_the_walker_rule():
    """Architecture by architecture, then n in the order given; the walker
    runs qutrit routers under router_kind="qubit", and the profile is
    `profile_for`'s."""
    config = ExperimentConfig(
        architectures=("walker", "bb-hetero", "uniform-bb"), router_kind="qubit",
        n_values=(3, 2),
    )
    points = list(config.points())
    assert [(arch, kind, n) for arch, kind, n, _ in points] == [
        ("walker", "qutrit", 3), ("walker", "qutrit", 2), ("bb-hetero", "qubit", 3),
        ("bb-hetero", "qubit", 2), ("uniform-bb", "qubit", 3), ("uniform-bb", "qubit", 2),
    ]
    assert [repr(profile) for *_, profile in points] == [
        repr(config.profile_for(arch, n)) for arch, _, n, _ in points]
    assert repr(points[0][3]) == "DistanceProfile.uniform(n=3, d=7)"
    assert repr(points[2][3]) == "DistanceProfile.linear(n=3)"


@pytest.mark.parametrize("kind", ["qutrit", "qubit"])
def test_run_sweep_default_protocol(monkeypatch, kind):
    """Without round_trip, each architecture runs its own protocol:
    descent-only for the heterogeneous trees, the round trip for uniform-bb."""
    built = []

    def recording_build(*args, **kwargs):
        built.append((args, kwargs, build_schedule(*args, **kwargs)))
        return built[-1][2]

    monkeypatch.setattr("hetqram.harness.build_schedule", recording_build)
    config = ExperimentConfig(
        architectures=("ft-hetero", "bb-hetero", "uniform-bb"),
        router_kind=kind,
        n_values=(3,),
        trials=20,
    )
    assert config.round_trip is None
    run_sweep(config)
    assert [args[0] for args, _, _ in built] == ["ft-hetero", "bb-hetero", "uniform-bb"]
    for args, kwargs, sched in built:
        arch = args[0]
        default = build_schedule(*args, **{**kwargs, "round_trip": None})
        own = build_schedule(*args, **{**kwargs, "round_trip": arch == "uniform-bb"})
        other = build_schedule(*args, **{**kwargs, "round_trip": arch != "uniform-bb"})
        assert sched.layers == default.layers == own.layers, arch
        assert sched.layers != other.layers, arch


def test_matching_bound_adds_qubit_delta():
    params = SurfaceParams()
    cost = CycleCost()
    prof = DistanceProfile.linear(5)
    qutrit = matching_bound("bb-hetero", "qutrit", 5, params, cost, prof)
    qubit = matching_bound("bb-hetero", "qubit", 5, params, cost, prof)
    assert qubit > qutrit
    uni = matching_bound("uniform-bb", "qutrit", 5, params, cost, DistanceProfile.uniform(5, 7))
    assert uni == pytest.approx(uniform_bb_infidelity(BoundInputs(5, params, cost), 7))


def test_database_modes():
    config = ExperimentConfig(database_mode="all_one", n_values=(3,))
    assert database_for(config, 3) == [1] * 8
    config = ExperimentConfig(database_mode="random", n_values=(3,), seed=5)
    a = database_for(config, 3)
    assert a == database_for(config, 3)
    assert set(a) <= {0, 1}


def test_compare_resources_analytic_n30():
    config = ExperimentConfig(n_values=(30,))
    row = compare_resources(30, config, architecture="bb-hetero", mode="analytic")
    assert row.target_vacuous
    assert row.ratio >= 4.0
    assert row.uniform_distance == 5


def test_compare_resources_ratio_above_one_from_n5():
    config = ExperimentConfig(n_values=(5,))
    for n in range(5, 26, 5):
        row = compare_resources(n, config, architecture="bb-hetero", mode="analytic")
        assert row.ratio >= 1.0, n


def test_compare_resources_simulated_small_n():
    config = ExperimentConfig(n_values=(3,), trials=200, seed=3)
    row = compare_resources(3, config, architecture="bb-hetero", mode="simulated")
    assert row.uniform_physical_qubits > 0
    assert not math.isnan(row.ratio)
    with pytest.raises(ResourceLimitError):
        compare_resources(12, config, architecture="bb-hetero", mode="simulated")
    with pytest.raises(ConfigError):
        compare_resources(5, config, architecture="uniform-bb")
    with pytest.raises(ConfigError, match="bogus"):
        compare_resources(3, config, architecture="bb-hetero", mode="bogus")


def test_compare_resources_auto_simulates_up_to_the_ceiling():
    """mode="auto" is mode="simulated" up to n=10 and mode="analytic" beyond."""
    config = ExperimentConfig(n_values=(3,), trials=200, seed=3)
    for arch in ("ft-hetero", "bb-hetero"):
        auto = compare_resources(3, config, architecture=arch, mode="auto")
        assert auto == compare_resources(3, config, architecture=arch, mode="simulated")
        assert auto != compare_resources(3, config, architecture=arch, mode="analytic")
        assert compare_resources(11, config, architecture=arch, mode="auto") == (
            compare_resources(11, config, architecture=arch, mode="analytic"))


# -- reports ---------------------------------------------------------------------


def _tiny_report():
    report = ExperimentReport()
    report.add(ReportRow("bb-hetero", "qutrit", 4, 0.1, 100, 0.25, 0.2, 0.3, 1.5, 7))
    report.add(ReportRow("walker", "qutrit", 3, 0.1, 100, 0.03125, 0.01, 0.09, 0.5, 7))
    return report


def test_report_row_validation():
    with pytest.raises(ValueError):
        ReportRow("a", "qutrit", 4, 0.1, 10, 0.5, 0.6, 0.7, 1.0, 1)
    with pytest.raises(ValueError):
        ReportRow("a", "qutrit", 4, 0.1, 10, 0.5, 0.4, 0.6, -1.0, 1)


def test_csv_header_and_field_order():
    text = report_to_csv(_tiny_report())
    assert text.splitlines()[0] == (
        "architecture,router_kind,n,p_prime,trials,mean_infidelity,"
        "ci95_low,ci95_high,analytic_bound,seed"
    )


def test_empty_report_is_header_only():
    assert report_to_csv(ExperimentReport()).splitlines() == [
        "architecture,router_kind,n,p_prime,trials,mean_infidelity,"
        "ci95_low,ci95_high,analytic_bound,seed"
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_round_trip(tmp_path, fmt):
    path = str(tmp_path / f"r.{fmt}")
    report = _tiny_report()
    emit_report(report, fmt, path)
    loaded = load_report(path)
    assert loaded.rows == report.rows


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        emit_report(_tiny_report(), "xml", str(tmp_path / "r.xml"))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(architectures=("nope",))
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigError, match="channel"):
        ExperimentConfig(channel="y")
    assert [ExperimentConfig(channel=c).channel for c in ("xz", "x", "z")] == ["xz", "x", "z"]
    with pytest.raises(ConfigError):
        ExperimentConfig(profile="uniform:x").profile_for("uniform-bb", 3)
    prof = ExperimentConfig(profile="uniform:5").profile_for("uniform-bb", 3)
    assert prof.uniform_d == 5
    assert ExperimentConfig().profile_for("bb-hetero", 4).kind == "linear"
    assert ExperimentConfig().profile_for("uniform-bb", 4).kind == "uniform"
    assert ExperimentConfig(profile="odd-paired").profile_for("bb-hetero", 4).kind == "odd_paired"


def test_estimator_converges_like_root_trials():
    """RMS error against the exact value shrinks ~4x for 16x the trials."""
    sched = build_bb_hetero(1, "qubit", [1, 0])
    noise = NoiseModel(SurfaceParams(), sched.profile, mode="aggregate", flat_rate=0.02)
    exact = 1.0 - exact_mean_fidelity(sched, noise)

    def rms(trials, repeats, base):
        errs = []
        for r in range(repeats):
            fids = run_fidelities(
                sched, noise, trials, seed=1000 + r, batch_size=4096, stream=base + r
            )
            errs.append(np.mean(1.0 - fids) - exact)
        return float(np.sqrt(np.mean(np.square(errs))))

    coarse = rms(1500, 12, base=0)
    fine = rms(24_000, 12, base=100)
    ratio = coarse / fine
    assert 2.0 < ratio < 8.0, (coarse, fine, ratio)
