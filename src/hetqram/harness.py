"""Monte Carlo experiment runner, statistics, and result serialization.

Experiments are fully determined by (config, seed): databases, noise
streams, and batch partitioning all derive from the seed, so reruns are
byte-identical. Trajectory batches use independent generator streams
keyed by (seed, point index, batch index) (`noise.trajectory_rng`).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import astuple, dataclass, field, replace
from typing import Iterator, Sequence, get_args, get_type_hints

import numpy as np

from . import analytics
from .circuits import DEFAULT_UNIFORM_DISTANCE, MAX_DEPTH, Schedule, build_schedule
from .engine import PlaneEngine
from .noise import (
    Channel,
    CycleCost,
    DistanceProfile,
    NoiseModel,
    SurfaceParams,
    trajectory_rng,
)

ARCHITECTURES = ("uniform-bb", "ft-hetero", "bb-hetero", "walker")
HETERO = ("ft-hetero", "bb-hetero")

#: superposition state space doubles per level; past this, use basis sampling
MAX_SUPERPOSITION_N = 10

_DB_STREAM = 0x6D656D  # database bits
_POINT_STRIDE = 1 << 20  # batch streams per sweep point


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class ResourceLimitError(RuntimeError):
    """Experiment exceeds the configured simulation ceiling (CLI exit code 3)."""


@dataclass(frozen=True)
class ExperimentConfig:
    architectures: tuple[str, ...] = ("bb-hetero",)
    router_kind: str = "qutrit"
    n_values: tuple[int, ...] = (4,)
    params: SurfaceParams = SurfaceParams()
    cost: CycleCost = CycleCost()
    profile: str | None = None  # "linear" | "odd-paired" | "uniform:D" | None
    trials: int = 1000
    seed: int = 7
    address_mode: str = "superposition"
    database_mode: str = "random"
    batch_size: int = 512
    channel: str = "xz"
    # None keeps each architecture's own protocol (see build_schedule):
    # round trip for uniform-bb, descent-only for the heterogeneous trees
    round_trip: bool | None = None

    def __post_init__(self):
        if not self.architectures:
            raise ConfigError("empty architecture list")
        for arch in self.architectures:
            if arch not in ARCHITECTURES:
                raise ConfigError(f"unknown architecture {arch!r}")
        if self.router_kind not in ("qutrit", "qubit"):
            raise ConfigError(f"unknown router kind {self.router_kind!r}")
        if not self.n_values:
            raise ConfigError("empty n range")
        if min(self.n_values) < 1:
            raise ConfigError("tree depths must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.address_mode not in ("superposition", "basis"):
            raise ConfigError(f"unknown address mode {self.address_mode!r}")
        if self.database_mode not in ("random", "all_zero", "all_one"):
            raise ConfigError(f"unknown database mode {self.database_mode!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.channel not in get_args(Channel):
            raise ConfigError(f"unknown channel {self.channel!r}")

    def points(self) -> Iterator[tuple[str, str, int, DistanceProfile]]:
        """Every sweep point `(architecture, router_kind, n, profile)`, in
        report order: architecture by architecture, then n. The walker
        always runs qutrit routers, whatever `router_kind` says, and each
        point takes its profile from `profile_for`."""
        for arch in self.architectures:
            kind = "qutrit" if arch == "walker" else self.router_kind
            for n in self.n_values:
                yield arch, kind, n, self.profile_for(arch, n)

    def profile_for(self, architecture: str, n: int) -> DistanceProfile:
        """The distance profile `profile` names at depth n; without one,
        the uniform trees take `DEFAULT_UNIFORM_DISTANCE` and the hetero
        trees the linear profile."""
        spec = self.profile
        if spec is None:
            spec = "linear" if architecture in HETERO else f"uniform:{DEFAULT_UNIFORM_DISTANCE}"
        if spec == "linear":
            return DistanceProfile.linear(n)
        if spec == "odd-paired":
            return DistanceProfile.odd_paired(n)
        if spec.startswith("uniform:"):
            try:
                return DistanceProfile.uniform(n, int(spec.split(":", 1)[1]))
            except ValueError:
                raise ConfigError(f"bad uniform profile {spec!r}; use uniform:D, D >= 1") from None
        raise ConfigError(f"unknown profile {spec!r}")


def database_for(config: ExperimentConfig, n: int) -> list[int]:
    """Database bits for depth n, reproducibly derived from the seed."""
    size = 1 << n
    if config.database_mode == "all_zero":
        return [0] * size
    if config.database_mode == "all_one":
        return [1] * size
    rng = trajectory_rng(config.seed, _DB_STREAM + n)
    return [int(b) for b in rng.integers(0, 2, size=size)]


# ---------------------------------------------------------------------------
# batched estimation


def simulation_ceiling(address_mode: str) -> int:
    """The deepest tree that `address_mode` simulates: `MAX_SUPERPOSITION_N`
    in superposition mode, `MAX_DEPTH` in sampled-basis mode."""
    return MAX_SUPERPOSITION_N if address_mode == "superposition" else MAX_DEPTH


def check_superposition_ceiling(n: int, address_mode: str) -> None:
    """Raise ResourceLimitError when `address_mode` cannot run depth n, past
    its `simulation_ceiling`: only superposition mode's ceiling lies below
    `MAX_DEPTH`, the deepest tree a schedule or a sweep may have."""
    ceiling = simulation_ceiling(address_mode)
    if n > ceiling:
        raise ResourceLimitError(
            f"superposition mode is capped at n={ceiling}; "
            "use basis address mode for deeper trees"
        )


def run_fidelities(
    schedule: Schedule,
    noise: NoiseModel | None,
    trials: int,
    seed: int,
    address_mode: str = "superposition",
    batch_size: int = 512,
    stream: int = 0,
) -> np.ndarray:
    """Fidelities of `trials` trajectories from the batched engine.

    `batch_size` is the stream granularity: batch b of `batch_size`
    trials (the last one possibly shorter) draws from its own stream,
    `trajectory_rng(seed, stream * _POINT_STRIDE + b)`, so the results do
    not depend on how the engine runs the batches. In both address modes
    one plane pass takes consecutive batches while its plane stays within
    the engine's byte budget, and a batch over that budget runs alone
    (see `PlaneEngine.run_batches`).
    """
    check_superposition_ceiling(schedule.n, address_mode)
    engine = PlaneEngine(schedule, noise, address_mode)
    return engine.run_batches(
        (trajectory_rng(seed, stream * _POINT_STRIDE + b), min(batch_size, trials - done))
        for b, done in enumerate(range(0, trials, batch_size))
    )


def wilson_interval(p_hat: float, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson 95% interval for a [0, 1]-bounded mean."""
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * math.sqrt(max(p_hat * (1 - p_hat), 0.0) / n + z * z / (4 * n * n)) / denom
    lo = min(max(center - half, 0.0), p_hat)
    hi = max(min(center + half, 1.0), p_hat)
    return lo, hi


def infidelity_stats(fidelities: np.ndarray) -> tuple[float, tuple[float, float], float]:
    """(mean infidelity, 95% CI, standard error) from per-trial fidelities.

    Wilson interval by default; for 10^4 trials and up the normal interval
    on the sample mean is used instead. A run in which every trajectory is
    exactly noiseless collapses to the degenerate interval (0, [0, 0]).
    """
    infid = 1.0 - np.asarray(fidelities, dtype=np.float64)
    n = infid.size
    mean = float(np.sum(infid) / n)
    se = float(np.std(infid, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if mean == 0.0 and se == 0.0:
        return 0.0, (0.0, 0.0), 0.0
    if n >= 10_000:
        z = 1.959963984540054
        lo, hi = max(mean - z * se, 0.0), min(mean + z * se, 1.0)
    else:
        lo, hi = wilson_interval(mean, n)
    return mean, (lo, hi), se


def estimate_infidelity(
    config: ExperimentConfig, schedule: Schedule, stream: int = 0
) -> tuple[float, tuple[float, float]]:
    """Mean query infidelity of the schedule under the configured noise."""
    noise = NoiseModel(config.params, schedule.profile, channel=config.channel)
    fids = run_fidelities(
        schedule,
        noise,
        config.trials,
        config.seed,
        address_mode=config.address_mode,
        batch_size=config.batch_size,
        stream=stream,
    )
    mean, ci, _ = infidelity_stats(fids)
    return mean, ci


# ---------------------------------------------------------------------------
# analytic bound matching a simulated point


def _check_profile(architecture: str, profile: DistanceProfile) -> None:
    """Refuse a profile kind that `architecture` does not take. The hetero
    trees run a graded profile, linear or odd-paired; the uniform tree and
    the walker run one code distance, a uniform profile. The bounds and
    the resource tables exist for exactly these pairs. An unknown
    architecture is refused too."""
    if architecture not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {architecture!r}")
    if (architecture in HETERO) == (profile.kind == "uniform"):
        accepted = "linear or odd-paired" if architecture in HETERO else "uniform:D"
        raise ConfigError(f"{architecture} takes a {accepted} profile, "
                          f"not {profile.kind.replace('_', '-')}")


def bound_pair(
    architecture: str,
    router_kind: str,
    n: int,
    params: SurfaceParams,
    cost: CycleCost,
    profile: DistanceProfile,
) -> tuple[float, float]:
    """(exact, closed-form) infidelity bound of one architecture point.

    Single-qubit router variants add the error-propagation term 4*delta
    on top of both wait-state bounds. The profile must be one that the
    architecture takes (`_check_profile`): the uniform tree and the walker
    are priced at their one distance, and the heterogeneous bounds assume
    the linear profile's distances (odd-paired gives every level the same
    effective distance).
    """
    _check_profile(architecture, profile)
    inputs = analytics.BoundInputs(n, params, cost)
    if architecture == "ft-hetero":
        exact, closed = analytics.ft_infidelity_bound(inputs)
    elif architecture == "bb-hetero":
        exact, closed = analytics.bb_infidelity_bound(inputs)
    else:
        exact = closed = analytics.uniform_bb_infidelity(inputs, profile.uniform_d)
    if router_kind == "qubit":
        if architecture in HETERO:
            key = "ft" if architecture == "ft-hetero" else "bb"
            extra = 4.0 * analytics.qubit_router_delta(key, inputs)
        else:
            extra = 4.0 * analytics.uniform_qubit_delta(inputs, profile.uniform_d)
        exact, closed = exact + extra, closed + extra
    return exact, closed


def matching_bound(
    architecture: str,
    router_kind: str,
    n: int,
    params: SurfaceParams,
    cost: CycleCost,
    profile: DistanceProfile,
) -> float:
    """The closed-form infidelity bound paired with one simulated point."""
    return bound_pair(architecture, router_kind, n, params, cost, profile)[0]


def resource_estimate(architecture: str, profile: DistanceProfile) -> analytics.ResourceEstimate:
    """The physical-qubit table of one architecture at `profile`, which
    must be one that the architecture takes (`_check_profile`).

    The uniform trees price 18 d^2 N at the profile's one distance. The
    hetero trees price the linear or the odd-paired packing, whichever
    the profile is.
    """
    _check_profile(architecture, profile)
    if architecture in HETERO:
        table = analytics.ft_resources if architecture == "ft-hetero" else analytics.bb_resources
        return table(profile.n, efficient=profile.kind == "odd_paired")
    return analytics.uniform_resources(profile.n, profile.uniform_d)


# ---------------------------------------------------------------------------
# sweeps and reports

@dataclass(frozen=True)
class ReportRow:
    """One sweep point's row; its fields, in order, are the report's
    columns (`REPORT_FIELDS`)."""

    architecture: str
    router_kind: str
    n: int
    p_prime: float
    trials: int
    mean_infidelity: float
    ci95_low: float
    ci95_high: float
    analytic_bound: float
    seed: int

    def __post_init__(self):
        if not self.ci95_low <= self.mean_infidelity <= self.ci95_high:
            raise ValueError("confidence interval does not bracket the mean")
        if self.analytic_bound < 0:
            raise ValueError("negative analytic bound")


#: the type of each report column, by name in column order, for reading a
#: report back
_ROW_TYPES = get_type_hints(ReportRow)
REPORT_FIELDS = tuple(_ROW_TYPES)


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)

    def add(self, row: ReportRow) -> None:
        self.rows.append(row)


def run_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo sweep over (architecture, n) points.

    Every point is checked (depth, profile, bound, then the superposition
    ceiling) before any is simulated, so an invalid configuration (exit 2)
    is reported first and no point runs before a too-deep one stops the
    sweep (exit 3).
    """
    deepest = max(config.n_values)
    if deepest > MAX_DEPTH:
        raise ConfigError(f"simulated tree depth must be <= {MAX_DEPTH}, got {deepest}")
    points = [
        (arch, kind, n, profile,
         matching_bound(arch, kind, n, config.params, config.cost, profile))
        for arch, kind, n, profile in config.points()
    ]
    check_superposition_ceiling(deepest, config.address_mode)
    report = ExperimentReport()
    for stream, (arch, kind, n, profile, bound) in enumerate(points):
        schedule = build_schedule(
            arch, n, kind, database_for(config, n),
            profile=profile, cost=config.cost, round_trip=config.round_trip,
        )
        mean, ci = estimate_infidelity(config, schedule, stream=stream)
        report.add(
            ReportRow(
                arch,
                kind,
                n,
                config.params.p_ratio,
                config.trials,
                mean,
                ci[0],
                ci[1],
                bound,
                config.seed,
            )
        )
    return report


def fit_scaling(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(infidelity) vs log(n) and its R^2.

    Nonpositive infidelity points are excluded with a warning. Too few
    points raise ConfigError.
    """
    if len(points) < 4:
        raise ConfigError(f"need at least 4 points for a scaling fit, got {len(points)}")
    kept = [(n, y) for n, y in points if y > 0.0]
    dropped = len(points) - len(kept)
    if dropped:
        warnings.warn(f"excluded {dropped} nonpositive infidelity point(s) from fit")
    if len(kept) < 2:
        raise ConfigError("fewer than 2 positive points remain")
    lx = np.log([n for n, _ in kept])
    ly = np.log([y for _, y in kept])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    hetero_architecture: str
    target_infidelity: float
    target_vacuous: bool
    uniform_distance: int
    uniform_physical_qubits: int
    hetero_physical_qubits: int
    ratio: float


def compare_resources(
    n: int,
    config: ExperimentConfig,
    architecture: str = "bb-hetero",
    mode: str = "analytic",
) -> ComparisonRow:
    """Equal-fidelity qubit-overhead comparison against the uniform BB tree:
    the row of `compare_point`."""
    return compare_point(n, config, architecture, mode)[0]


def compare_point(
    n: int,
    config: ExperimentConfig,
    architecture: str = "bb-hetero",
    mode: str = "analytic",
) -> tuple[ComparisonRow, ReportRow | None]:
    """Equal-fidelity qubit-overhead comparison against the uniform BB tree,
    and the simulated point's report row (None when the target is the
    bound).

    The heterogeneous target infidelity comes from the closed-form bound
    (mode="analytic") or from `run_sweep` of this one point
    (mode="simulated"; mode="auto" simulates up to the
    `simulation_ceiling` of the config's address mode and takes the bound
    beyond). The minimum uniform distance reaching that target
    prices the uniform tree, and the heterogeneous side is priced at the
    odd-paired distance packing, both through `resource_estimate`. The
    bounds and the simulated target are those of the qutrit-router tree
    with the paper's linear profile, so any other router kind or profile
    is refused, as is an unknown mode. A simulated target is the point's
    mean infidelity, floored at 1e-12.
    """
    if architecture not in HETERO:
        raise ConfigError("comparison target must be ft-hetero or bb-hetero")
    if config.router_kind != "qutrit":
        raise ConfigError(f"compare models qutrit routers only, not {config.router_kind!r}")
    if config.profile not in (None, "linear"):
        raise ConfigError(f"compare models the linear profile only, not {config.profile!r}")
    if mode not in ("analytic", "simulated", "auto"):
        raise ConfigError(f"unknown compare mode {mode!r}; use analytic, simulated or auto")
    simulable = n <= simulation_ceiling(config.address_mode)
    if mode == "simulated" or (mode == "auto" and simulable):
        if not simulable:
            raise ResourceLimitError(f"n={n} is beyond the simulation ceiling")
        point = replace(config, architectures=(architecture,), n_values=(n,))
        simulated = run_sweep(point).rows[0]
        target = max(simulated.mean_infidelity, 1e-12)
    else:
        simulated = None
        profile = DistanceProfile.linear(n)
        target = bound_pair(architecture, "qutrit", n, config.params, config.cost, profile)[0]
    inputs = analytics.BoundInputs(n, config.params, config.cost)
    d = analytics.min_uniform_distance(n, target, inputs)
    uniform_q = resource_estimate("uniform-bb", DistanceProfile.uniform(n, d)).physical_total
    hetero_q = resource_estimate(architecture, DistanceProfile.odd_paired(n)).physical_total
    return ComparisonRow(
        n,
        architecture,
        target,
        analytics.vacuous(target),
        d,
        uniform_q,
        hetero_q,
        uniform_q / hetero_q,
    ), simulated


# ---------------------------------------------------------------------------
# serialization


def rows_to_text(fields: Sequence[str], rows: Sequence[tuple], fmt: str) -> str:
    """A table as CSV (floats by repr, "\n" line ends) or as a JSON list of
    objects (indent 2, trailing newline)."""
    if fmt == "json":
        return json.dumps([dict(zip(fields, r)) for r in rows], indent=2) + "\n"
    if fmt != "csv":
        raise ConfigError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for r in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in r])
    return buf.getvalue()


def report_to_csv(report: ExperimentReport) -> str:
    return rows_to_text(REPORT_FIELDS, [astuple(row) for row in report.rows], "csv")


def emit_report(report: ExperimentReport, fmt: str, path: str) -> None:
    """Write the report as CSV or JSON with a fixed column order."""
    text = rows_to_text(REPORT_FIELDS, [astuple(row) for row in report.rows], fmt)
    with open(path, "w") as fh:
        fh.write(text)


def load_report(path: str) -> ExperimentReport:
    """Parse a CSV or JSON report emitted by emit_report.

    A malformed file or row raises ConfigError naming the file and the row.
    """
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("["):
        try:
            records = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a JSON report: {exc}") from None
    else:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != list(REPORT_FIELDS):
            raise ConfigError(f"{path}: unexpected CSV columns: {reader.fieldnames}")
        records = list(reader)
    report = ExperimentReport()
    for i, rec in enumerate(records, 1):
        try:
            # JSON values go through their text too, so that 4.5 is no int
            values = [kind(str(rec[f])) for f, kind in _ROW_TYPES.items()]
            report.add(ReportRow(*values))
        except KeyError as exc:
            raise ConfigError(f"{path}: row {i}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: row {i}: {exc}") from None
    return report
