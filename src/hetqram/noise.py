"""Surface-code noise model: per-level logical error rates and Pauli sampling.

The logical error rate of a distance-d patch is eps' * (p')^{d_e} per code
cycle, with d_e = (d+1)/2 for odd d and d/2 for even d. A distance profile
assigns a code distance to every tree level; the linear profile gives the
root the largest distance and the leaves distance 1, and the odd-paired
profile rounds every even distance down to the odd value below it (same
d_e, hence same rates, fewer physical qubits).

Each code cycle of a phase hits a live qubit with X or Z at its level's
rate. Only the parity of those hits matters (X*X = Z*Z = identity), so
noise is drawn as one net X and one net Z flip per qubit per phase, with
the odd-parity probability of its rounds; `NoisePlan` says where.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Literal

import numpy as np

if TYPE_CHECKING:
    from .circuits import Schedule

Channel = Literal["xz", "x", "z"]


@dataclass(frozen=True)
class SurfaceParams:
    """Surface-code scaling constants: rate = epsilon_prime * p_ratio^{d_e}."""

    epsilon_prime: float = 0.03
    p_ratio: float = 0.1

    def __post_init__(self):
        if self.epsilon_prime <= 0:
            raise ValueError("epsilon_prime must be > 0")
        if not 0 < self.p_ratio < 1:
            raise ValueError("p_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class CycleCost:
    """Code cycles per unit of code distance: c for CSWAP steps, s for SWAP."""

    c: int = 2
    s: int = 1

    def __post_init__(self):
        if self.c < 1 or self.s < 1:
            raise ValueError("cycle costs must be integers >= 1")
        if self.c != int(self.c) or self.s != int(self.s):
            raise ValueError("cycle costs must be integers")


def effective_distance(d: int) -> int:
    """d_e: (d+1)/2 for odd d, d/2 for even d."""
    if d < 1:
        raise ValueError(f"distance must be >= 1, got {d}")
    return (d + 1) // 2


def logical_error_rate(params: SurfaceParams, d: int) -> float:
    """Per-code-cycle logical error rate of a distance-d patch, clamped to [0, 1]."""
    rate = params.epsilon_prime * params.p_ratio ** effective_distance(d)
    return min(max(rate, 0.0), 1.0)


class DistanceProfile:
    """Assignment of code distance to tree levels 0..n (root is level 0)."""

    def __init__(self, kind: str, n: int, uniform_d: int | None = None):
        if n < 1:
            raise ValueError("tree depth n must be >= 1")
        if kind not in ("linear", "odd_paired", "uniform"):
            raise ValueError(f"unknown profile kind {kind!r}")
        if kind == "uniform":
            if uniform_d is None or uniform_d < 1:
                raise ValueError("uniform profile needs a distance >= 1")
        elif uniform_d is not None:
            raise ValueError("uniform_d only applies to the uniform profile")
        self.kind = kind
        self.n = n
        self.uniform_d = uniform_d

    @classmethod
    def linear(cls, n: int) -> "DistanceProfile":
        return cls("linear", n)

    @classmethod
    def odd_paired(cls, n: int) -> "DistanceProfile":
        return cls("odd_paired", n)

    @classmethod
    def uniform(cls, n: int, d: int) -> "DistanceProfile":
        return cls("uniform", n, uniform_d=d)

    def distance(self, level: int) -> int:
        if not 0 <= level <= self.n:
            raise ValueError(f"level {level} outside [0, {self.n}]")
        if self.kind == "uniform":
            return self.uniform_d
        d = self.n - level + 1
        if self.kind == "odd_paired" and d % 2 == 0:
            d -= 1
        return d

    def distances(self) -> list[int]:
        return [self.distance(l) for l in range(self.n + 1)]

    def __repr__(self) -> str:
        if self.kind == "uniform":
            return f"DistanceProfile.uniform(n={self.n}, d={self.uniform_d})"
        return f"DistanceProfile.{self.kind}(n={self.n})"


def level_error_rate(params: SurfaceParams, profile: DistanceProfile, level: int) -> float:
    """Logical error rate at the profile's distance for one tree level."""
    return logical_error_rate(params, profile.distance(level))


@dataclass(frozen=True)
class PauliEvent:
    qubit: int
    kind: Literal["X", "Z"]

    def __post_init__(self):
        if self.kind not in ("X", "Z"):
            raise ValueError(f"kind must be X or Z, got {self.kind!r}")


def _channel_probs(rate: float, channel: Channel) -> tuple[float, float]:
    if channel == "xz":
        return rate / 2.0, rate / 2.0
    if channel == "x":
        return rate, 0.0
    if channel == "z":
        return 0.0, rate
    raise ValueError(f"unknown channel {channel!r}")


def net_flip_probability(p_round: float | np.ndarray, cycles: int) -> float | np.ndarray:
    """P(odd number of hits) over `cycles` Bernoulli(p_round) rounds.

    That is (1 - (1 - 2p)^k) / 2, computed as -expm1(k log1p(-2p)) / 2,
    which keeps full relative precision for tiny p where the plain form
    cancels to 0. A rate above 1/2 (a single-kind channel) is mirrored:
    (1 - 2p)^k = (-1)^k (1 - 2(1 - p))^k. A rate of exactly 1/2 takes
    log1p(-1) = -inf, so q = 1/2, without a divide-by-zero warning.
    Accepts an array of rates; a scalar rate gives a float.
    """
    p = np.asarray(p_round, dtype=float)
    with np.errstate(divide="ignore"):
        log_fair = np.log1p(-2.0 * np.minimum(p, 1.0 - p))
    q = -0.5 * np.expm1(cycles * log_fair)
    if cycles % 2:
        q = np.where(p > 0.5, 1.0 - q, q)
    return float(q) if q.ndim == 0 else q


class NoiseModel:
    """Per-qubit error rates for a schedule plus their X/Z channel split.

    `flat_rate` overrides the surface-code rates with one uniform
    per-cycle rate for every qubit (used by small benchmark circuits).
    `mode` names the sampling rule; the only one is "aggregate", one net
    parity flip per qubit, kind and phase.
    """

    def __init__(
        self,
        params: SurfaceParams,
        profile: DistanceProfile,
        channel: Channel = "xz",
        mode: Literal["aggregate"] = "aggregate",
        flat_rate: float | None = None,
    ):
        if mode != "aggregate":
            raise ValueError(f"unknown noise mode {mode!r}; the only mode is 'aggregate'")
        self.params = params
        self.profile = profile
        self.channel = channel
        self.flat_rate = flat_rate

    def rate_for_level(self, level: int) -> float:
        if self.flat_rate is not None:
            return self.flat_rate
        return level_error_rate(self.params, self.profile, level)

    def per_qubit_rates(self, levels: Iterable[int]) -> np.ndarray:
        return np.array([self.rate_for_level(l) for l in levels], dtype=float)


@dataclass(frozen=True, eq=False)
class NoiseGroup:
    """Qubits of one tree level that come alive at the same layer."""

    level: int
    first_active: int
    rate: float
    px: float
    pz: float
    qubits: np.ndarray


@dataclass(frozen=True)
class NoiseStep:
    """Noise landing after one layer: `rounds` cycles on the live groups."""

    layer: int
    rounds: int
    groups: tuple[NoiseGroup, ...]


class NoisePlan:
    """Where a schedule's noise lands, for how long, and on which qubits.

    The one home of the per-phase noise rule that every runner shares:
    noise is sampled once per phase (the parallel routing step), after its
    last layer, for as many rounds as the largest noise_rounds in it. A
    qubit's patch only exists (and only decoheres) from the first layer
    that touches it; input qubits live from layer 0. Each level's rate is
    split into X and Z by the channel; levels without a positive rate are
    skipped. `groups` lists every group, ordered by (level, first active
    layer); `step_layers` and `step_rounds` give each step's layer and
    rounds as int64 arrays, and `steps` the steps themselves, each holding
    its live groups in group order (built on first read).
    """

    def __init__(self, schedule: "Schedule", noise: NoiseModel):
        layers = schedule.layers
        # the qubits by (level, first active layer), each group's in qubit
        # order (lexsort is stable), cut where the pair changes
        first_active = np.array(schedule.first_active_layer(), dtype=np.int64)
        levels = np.array(schedule.levels, dtype=np.int64)
        order = np.lexsort((first_active, levels))
        key = levels[order] * (len(layers) + 1) + first_active[order]
        cuts = np.flatnonzero(np.diff(key, prepend=-1))
        heads = order[cuts]
        groups = []
        for level, start, lo, hi in zip(levels[heads].tolist(), first_active[heads].tolist(),
                                        cuts.tolist(), [*cuts[1:].tolist(), order.size]):
            rate = noise.rate_for_level(level)
            if rate <= 0.0:
                continue
            px, pz = _channel_probs(rate, noise.channel)
            groups.append(NoiseGroup(level, start, rate, px, pz, order[lo:hi]))
        self.groups = tuple(groups)
        # a step after each phase's last layer, with the largest
        # noise_rounds of any layer of that phase
        phase = np.array([layer.phase for layer in layers], dtype=np.int64)
        noise_rounds = np.array([layer.noise_rounds for layer in layers], dtype=np.int64)
        phases, which = np.unique(phase, return_inverse=True)
        rounds = np.zeros(phases.size, dtype=np.int64)
        np.maximum.at(rounds, which, noise_rounds)
        self.step_layers = np.flatnonzero(np.append(phase[1:] != phase[:-1], len(layers) > 0))
        self.step_rounds = rounds[which[self.step_layers]]

    @cached_property
    def steps(self) -> tuple[NoiseStep, ...]:
        return tuple(
            NoiseStep(li, r, tuple(g for g in self.groups if g.first_active <= li))
            for li, r in zip(self.step_layers.tolist(), self.step_rounds.tolist())
        )


def trajectory_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for stream `stream` of a seeded experiment.

    Distinct streams are statistically independent Philox streams keyed by
    (seed, stream), so trials can run in any order or in parallel and
    reproduce exactly.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
