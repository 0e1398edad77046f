"""Traced replay of a workload for the per-layer metrics.

Every point is replayed through the library's public functions in the
order `run_sweep` calls them, with a span around each call into a layer:

    point                         (the user path of one sweep point)
      harness.database_for
      circuits.build_schedule
      engine.init                 PlaneEngine(schedule, noise, mode)
      engine.run                  one span per batch, run_fidelities' streams
      harness.infidelity_stats
      harness.matching_bound

After the user path, two noise-free engines (construction plus the same
batches) split the engine's time three ways. Their spans are

    engine.noise_free.fresh       on a newly built copy of the schedule
    engine.noise_free.warm        on the user path's schedule, whose
                                  ideal_word cache is already filled

(each with `.init` and `.run` child spans), and

    circuits.reference_s = fresh - warm          noiseless reference words
    engine.kernel_s      = warm                  gate pass, packing, readout
    engine.noise_s       = init + run - fresh    noise sampling, flip scatter

Spans are kept in memory and written to one JSON file when the run ends.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from hetqram.circuits import Schedule, build_schedule
from hetqram.engine import PlaneEngine
from hetqram.harness import (
    ExperimentConfig,
    database_for,
    infidelity_stats,
    matching_bound,
)
from hetqram.noise import (
    DistanceProfile,
    NoiseModel,
    SurfaceParams,
    net_flip_probability,
    trajectory_rng,
)

from workloads import BATCH_SIZE, Point

#: (X share, Z share) of a level's rate for each noise channel
_CHANNEL_SPLIT = {"xz": (0.5, 0.5), "x": (1.0, 0.0), "z": (0.0, 1.0)}

# (name, unit, kind) of every per-layer metric, in print order
PER_LAYER = (
    ("cli.wall_s", "s", "measured"),
    ("cli.point_s_max", "s", "measured"),
    ("circuits.build_s", "s", "measured"),
    ("circuits.reference_s", "s", "derived"),
    ("circuits.qubits", "count", "computed"),
    ("circuits.layers", "count", "computed"),
    ("circuits.gates", "count", "computed"),
    ("circuits.reference_gate_evals", "count", "computed"),
    ("engine.init_s", "s", "measured"),
    ("engine.run_s", "s", "measured"),
    ("engine.kernel_s", "s", "measured"),
    ("engine.noise_s", "s", "derived"),
    ("engine.ns_per_trial_branch", "ns", "derived"),
    ("engine.batches", "count", "counted"),
    ("engine.trial_branches", "count", "counted"),
    ("engine.plane_bytes", "bytes", "computed"),
    ("noise.events_per_trial", "events", "computed"),
    ("harness.stats_s", "s", "measured"),
    ("harness.bound_s", "s", "measured"),
    ("harness.points", "count", "counted"),
    ("trace.overhead_s", "s", "derived"),
    ("check.noise_free_trials", "count", "counted"),
    ("check.noise_free_unit_trials", "count", "counted"),
    ("check.mean_match_points", "count", "counted"),
    ("check.count_mismatches", "count", "counted"),
)

_NOTES = {
    "cli.wall_s": "untraced cli.main calls of this pass, in seconds",
    "cli.point_s_max": "slowest of those calls",
    "circuits.reference_s": "noise-free engine, fresh schedule minus warm",
    "circuits.reference_gate_evals": "addresses x gates",
    "engine.kernel_s": "noise-free engine on the warm schedule",
    "engine.noise_s": "init + run minus noise-free engine on the fresh schedule",
    "engine.ns_per_trial_branch": "kernel_s / trial_branches",
    "engine.plane_bytes": "largest single-batch plane, from array sizes",
    "noise.events_per_trial": "expected X+Z flips per trial, summed over points",
    "trace.overhead_s": "traced user-path spans minus untraced point calls",
}


class Tracer:
    """In-memory spans: name, start, end, parent span and point id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, point: int):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "point": point,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n")


def point_inputs(point: Point, seed: int) -> tuple[ExperimentConfig, str, DistanceProfile]:
    """The config the CLI builds for this point, its router kind and profile."""
    config = ExperimentConfig(
        architectures=(point.arch,),
        router_kind=point.routers,
        n_values=(point.n,),
        params=SurfaceParams(p_ratio=point.p_prime),
        trials=point.trials,
        seed=seed,
        batch_size=BATCH_SIZE,
        round_trip=point.round_trip,
    )
    kind = "qutrit" if point.arch == "walker" else config.router_kind
    return config, kind, config.profile_for(point.arch, point.n)


def build_point(point: Point, seed: int) -> tuple[Schedule, list[int], ExperimentConfig]:
    config, kind, profile = point_inputs(point, seed)
    database = database_for(config, point.n)
    schedule = build_schedule(point.arch, point.n, kind, database, profile=profile,
                              cost=config.cost, round_trip=config.round_trip)
    return schedule, database, config


def batches(config: ExperimentConfig):
    """(rng, trials) of each batch, on the streams run_fidelities uses.

    A one-point sweep runs its point on stream 0, whose batch b draws from
    trajectory_rng(seed, b); the mean-match check fails if that changes.
    """
    done = index = 0
    while done < config.trials:
        take = min(config.batch_size, config.trials - done)
        yield trajectory_rng(config.seed, index), take
        done += take
        index += 1


def noise_model(config: ExperimentConfig, schedule: Schedule) -> NoiseModel:
    return NoiseModel(config.params, schedule.profile, channel=config.channel, mode="aggregate")


def expected_events(schedule: Schedule, noise: NoiseModel) -> float:
    """Expected net X and Z flips per trial under the engine's phase rule:
    one draw per live qubit at each phase's last layer, for the phase's
    largest noise_rounds."""
    levels = np.asarray(schedule.levels)
    first = np.asarray(schedule.first_active_layer())
    rate = np.array([noise.rate_for_level(int(l)) for l in range(int(levels.max()) + 1)])
    x_share, z_share = _CHANNEL_SPLIT[noise.channel]
    px, pz = rate[levels] * x_share, rate[levels] * z_share
    layers = schedule.layers
    rounds: dict[int, int] = {}
    for layer in layers:
        rounds[layer.phase] = max(rounds.get(layer.phase, 0), layer.noise_rounds)
    total = 0.0
    for li, layer in enumerate(layers):
        if li + 1 < len(layers) and layers[li + 1].phase == layer.phase:
            continue
        live = first <= li
        r = rounds[layer.phase]
        total += float(np.sum(net_flip_probability(px[live], r)))
        total += float(np.sum(net_flip_probability(pz[live], r)))
    return total


def _plane_bytes(qubits: int, trials: int, branches: int) -> int:
    take = min(BATCH_SIZE, trials)
    return qubits * ((take * branches + 63) // 64) * 8


def static_counts(schedule: Schedule, point: Point, config: ExperimentConfig) -> dict:
    """The exact counts of one point, from the schedule and config alone."""
    branches = 1 << point.n
    gates = sum(len(layer.gates) for layer in schedule.layers)
    return {
        "circuits.qubits": schedule.qubit_count,
        "circuits.layers": len(schedule.layers),
        "circuits.gates": gates,
        "circuits.reference_gate_evals": gates * branches,
        "engine.batches": -(-point.trials // BATCH_SIZE),
        "engine.trial_branches": point.trials * branches,
        "engine.plane_bytes": _plane_bytes(schedule.qubit_count, point.trials, branches),
        "noise.events_per_trial": expected_events(schedule, noise_model(config, schedule)),
    }


def _run_engine(tracer: Tracer, i: int, schedule: Schedule, noise: NoiseModel | None,
                config: ExperimentConfig, prefix: str):
    """Construct an engine and run every batch, with spans `prefix.init` and
    `prefix.run`; returns (engine, fidelities, batches run)."""
    with tracer.span(f"{prefix}.init", i):
        engine = PlaneEngine(schedule, noise, config.address_mode)
    out = []
    for rng, take in batches(config):
        with tracer.span(f"{prefix}.run", i):
            out.append(engine.run(rng, take))
    return engine, np.concatenate(out), len(out)


def _merge_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        if key == "engine.plane_bytes":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


class WorkloadTrace:
    """Spans, counts and checks of one workload's traced replay."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = Tracer()
        self.counts: dict = {}
        self.means: list[float] = []
        self.point_ok: list[bool] = []
        self.cli_seconds = 0.0
        self.cli_slowest = 0.0
        self.noise_free_trials = 0
        self.noise_free_unit = 0
        self.mean_matches = 0
        self.count_mismatches = 0

    def trace_point(self, i: int, point: Point) -> None:
        """Replay one point's user path under spans, then the two noise-free
        engines, then recount the point at the same seed and at another."""
        tracer, seed = self.tracer, self.seed
        gc.collect()  # as before each untraced call
        with tracer.span("point", i):
            config, kind, profile = point_inputs(point, seed)
            with tracer.span("harness.database_for", i):
                database = database_for(config, point.n)
            with tracer.span("circuits.build_schedule", i):
                schedule = build_schedule(point.arch, point.n, kind, database, profile=profile,
                                          cost=config.cost, round_trip=config.round_trip)
            noise = noise_model(config, schedule)
            engine, fids, nbatches = _run_engine(tracer, i, schedule, noise, config, "engine")
            with tracer.span("harness.infidelity_stats", i):
                mean, _, _ = infidelity_stats(fids)
            with tracer.span("harness.matching_bound", i):
                matching_bound(point.arch, kind, point.n, config.params, config.cost, profile)

        fresh, _, _ = build_point(point, seed)
        noise_free = []
        for which, sched in (("fresh", fresh), ("warm", schedule)):
            name = f"engine.noise_free.{which}"
            with tracer.span(name, i):
                noise_free.append(_run_engine(tracer, i, sched, None, config, name)[1])
        ones = np.concatenate(noise_free)
        unit = int(np.count_nonzero(ones == 1.0))

        traced_counts = static_counts(schedule, point, config)
        traced_counts["engine.batches"] = nbatches
        traced_counts["engine.trial_branches"] = point.trials * engine.branch_count
        other, _, other_config = build_point(point, seed + 1)
        mismatches = sum(
            1 for counts in (static_counts(fresh, point, config),
                             static_counts(other, point, other_config))
            for key, value in traced_counts.items() if counts[key] != value
        )
        _merge_counts(self.counts, traced_counts)

        self.means.append(mean)
        self.noise_free_trials += ones.size
        self.noise_free_unit += unit
        self.count_mismatches += mismatches
        self.point_ok.append(unit == ones.size and mismatches == 0)
        if not self.point_ok[-1]:
            print(f"check: {point.label}: {ones.size - unit} noise-free trials below 1, "
                  f"{mismatches} count mismatches", file=sys.stderr)

    def finish(self, cli_means: list[float | None], cli_times: list[float]) -> None:
        """Compare each traced mean with the one the CLI wrote at the same seed."""
        self.cli_seconds = sum(cli_times)
        self.cli_slowest = max(cli_times)
        for i, (traced, written) in enumerate(zip(self.means, cli_means)):
            matched = written is not None and traced == written
            self.mean_matches += matched
            if not matched:
                print(f"check: point {i}: traced mean {traced!r} vs CLI {written!r}",
                      file=sys.stderr)
                self.point_ok[i] = False

    def values(self) -> dict[str, float]:
        t = self.tracer.total
        init, run = t("engine.init"), t("engine.run")
        fresh, warm = t("engine.noise_free.fresh"), t("engine.noise_free.warm")
        values = dict(self.counts)
        values.update({
            "cli.wall_s": self.cli_seconds,
            "cli.point_s_max": self.cli_slowest,
            "circuits.build_s": t("circuits.build_schedule"),
            "circuits.reference_s": fresh - warm,
            "engine.init_s": init,
            "engine.run_s": run,
            "engine.kernel_s": warm,
            "engine.noise_s": init + run - fresh,
            "engine.ns_per_trial_branch": warm / self.counts["engine.trial_branches"] * 1e9,
            "harness.stats_s": t("harness.infidelity_stats"),
            "harness.bound_s": t("harness.matching_bound"),
            "harness.points": len(self.point_ok),
            "trace.overhead_s": t("point") - self.cli_seconds,
            "check.noise_free_trials": self.noise_free_trials,
            "check.noise_free_unit_trials": self.noise_free_unit,
            "check.mean_match_points": self.mean_matches,
            "check.count_mismatches": self.count_mismatches,
        })
        return values

    def metrics(self) -> dict:
        values = self.values()
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def print_table(self) -> None:
        values = self.values()
        for name, unit, kind in PER_LAYER:
            note = _NOTES.get(name, "")
            print(f"  {name:32s} {values[name]:>16.6g} {unit:6s} {kind:9s} {note}")
        engine = values["engine.init_s"] + values["engine.run_s"]
        for name in ("circuits.reference_s", "engine.kernel_s", "engine.noise_s"):
            print(f"  share of engine.init_s + engine.run_s: {name:22s} "
                  f"{values[name] / engine:7.1%}")
