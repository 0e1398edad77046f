"""Monte Carlo experiment runner, statistics, and result serialization.

Experiments are fully determined by (config, seed): databases, noise
streams, and batch partitioning all derive from the seed, so reruns are
byte-identical. Trajectory batches use counter-based generator streams
keyed by (seed, point index, batch index).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence, get_args

import numpy as np

from . import analytics
from .circuits import MAX_DEPTH, Schedule, build_schedule
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

#: superposition state space doubles per level; past this, use basis sampling
MAX_SUPERPOSITION_N = 10

#: default uniform code distance for uniform-BB and walker experiments
DEFAULT_UNIFORM_DISTANCE = 7

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

    def profile_for(self, architecture: str, n: int) -> DistanceProfile:
        spec = self.profile
        if spec is None:
            if architecture in ("uniform-bb", "walker"):
                return DistanceProfile.uniform(n, DEFAULT_UNIFORM_DISTANCE)
            return DistanceProfile.linear(n)
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


def check_superposition_ceiling(n: int, address_mode: str) -> None:
    """Raise ResourceLimitError when superposition mode cannot run depth n."""
    if address_mode == "superposition" and n > MAX_SUPERPOSITION_N:
        raise ResourceLimitError(
            f"superposition mode is capped at n={MAX_SUPERPOSITION_N}; "
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
    not depend on how the engine runs the batches. One plane pass may
    span several consecutive batches (see `PlaneEngine.run_batches`).
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
    on top of both wait-state bounds. The uniform tree's bound needs a
    uniform profile; the walker reads a non-uniform one at its root
    distance. The heterogeneous bounds assume the linear profile's
    distances (odd-paired gives every level the same effective distance),
    so a uniform profile has no bound there.
    """
    inputs = analytics.BoundInputs(n, params, cost)
    if architecture in ("uniform-bb", "walker"):
        if profile.kind == "uniform":
            d = profile.uniform_d
        elif architecture == "walker":
            d = profile.distance(0)
        else:
            raise ConfigError("uniform-bb requires a uniform profile")
        exact = closed = analytics.uniform_bb_infidelity(inputs, d)
        if router_kind == "qubit":
            exact = closed = exact + 4.0 * analytics.uniform_qubit_delta(inputs, d)
        return exact, closed
    if architecture in ("ft-hetero", "bb-hetero") and profile.kind == "uniform":
        raise ConfigError(f"{architecture} has no bound for a uniform profile; "
                          "use linear or odd-paired")
    if architecture == "ft-hetero":
        exact, closed = analytics.ft_infidelity_bound(inputs)
        key = "ft"
    elif architecture == "bb-hetero":
        exact, closed = analytics.bb_infidelity_bound(inputs)
        key = "bb"
    else:
        raise ConfigError(f"unknown architecture {architecture!r}")
    if router_kind == "qubit":
        extra = 4.0 * analytics.qubit_router_delta(key, inputs)
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


# ---------------------------------------------------------------------------
# sweeps and reports

REPORT_FIELDS = (
    "architecture",
    "router_kind",
    "n",
    "p_prime",
    "trials",
    "mean_infidelity",
    "ci95_low",
    "ci95_high",
    "analytic_bound",
    "seed",
)


@dataclass(frozen=True)
class ReportRow:
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

    def astuple(self):
        return tuple(getattr(self, f) for f in REPORT_FIELDS)


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
    points = []
    for arch in config.architectures:
        kind = "qutrit" if arch == "walker" else config.router_kind
        for n in config.n_values:
            if n > MAX_DEPTH:
                raise ConfigError(f"simulated tree depth must be <= {MAX_DEPTH}, got {n}")
            profile = config.profile_for(arch, n)
            bound = matching_bound(arch, kind, n, config.params, config.cost, profile)
            points.append((arch, kind, n, profile, bound))
    for _, _, n, _, _ in points:
        check_superposition_ceiling(n, config.address_mode)
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

    Nonpositive infidelity points are excluded with a warning.
    """
    if len(points) < 4:
        raise ValueError("need at least 4 points for a scaling fit")
    kept = [(n, y) for n, y in points if y > 0.0]
    dropped = len(points) - len(kept)
    if dropped:
        warnings.warn(f"excluded {dropped} nonpositive infidelity point(s) from fit")
    if len(kept) < 2:
        raise ValueError("fewer than 2 positive points remain")
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
    """Equal-fidelity qubit-overhead comparison against the uniform BB tree.

    The heterogeneous target infidelity comes from the closed-form bound
    (mode="analytic"), or from simulation when the depth is simulable
    (mode="simulated"/"auto"). The minimum uniform distance reaching that
    target prices the uniform tree at 18 d^2 N physical qubits; the
    heterogeneous side uses the odd-paired distance packing.
    """
    if architecture not in ("ft-hetero", "bb-hetero"):
        raise ConfigError("comparison target must be ft-hetero or bb-hetero")
    inputs = analytics.BoundInputs(n, config.params, config.cost)
    simulable = n <= MAX_SUPERPOSITION_N
    use_sim = mode == "simulated" or (mode == "auto" and simulable)
    if use_sim:
        if not simulable:
            raise ResourceLimitError(f"n={n} is beyond the simulation ceiling")
        profile = DistanceProfile.linear(n)
        schedule = build_schedule(
            architecture, n, config.router_kind, database_for(config, n),
            profile=profile, cost=config.cost, round_trip=config.round_trip,
        )
        target, _ = estimate_infidelity(config, schedule)
        target = max(target, 1e-12)
    elif architecture == "bb-hetero":
        target = analytics.bb_infidelity_bound(inputs)[0]
    else:
        target = analytics.ft_infidelity_bound(inputs)[0]
    d = analytics.min_uniform_distance(n, target, inputs)
    uniform_q = analytics.uniform_resources(n, d).physical_total
    if architecture == "bb-hetero":
        hetero_q = analytics.bb_resources(n, efficient=True).physical_total
    else:
        hetero_q = analytics.ft_resources(n, efficient=True).physical_total
    return ComparisonRow(
        n,
        architecture,
        target,
        analytics.vacuous(target),
        d,
        uniform_q,
        hetero_q,
        uniform_q / hetero_q,
    )


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
    return rows_to_text(REPORT_FIELDS, [row.astuple() for row in report.rows], "csv")


def emit_report(report: ExperimentReport, fmt: str, path: str) -> None:
    """Write the report as CSV or JSON with a fixed column order."""
    text = rows_to_text(REPORT_FIELDS, [row.astuple() for row in report.rows], fmt)
    with open(path, "w") as fh:
        fh.write(text)


def load_report(path: str) -> ExperimentReport:
    """Parse a CSV or JSON report emitted by emit_report."""
    with open(path) as fh:
        text = fh.read()
    report = ExperimentReport()
    if text.lstrip().startswith("["):
        entries = json.loads(text)
        for e in entries:
            report.add(ReportRow(**{k: e[k] for k in REPORT_FIELDS}))
        return report
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != list(REPORT_FIELDS):
        raise ConfigError(f"unexpected CSV columns: {reader.fieldnames}")
    for rec in reader:
        report.add(
            ReportRow(
                rec["architecture"],
                rec["router_kind"],
                int(rec["n"]),
                float(rec["p_prime"]),
                int(rec["trials"]),
                float(rec["mean_infidelity"]),
                float(rec["ci95_low"]),
                float(rec["ci95_high"]),
                float(rec["analytic_bound"]),
                int(rec["seed"]),
            )
        )
    return report
