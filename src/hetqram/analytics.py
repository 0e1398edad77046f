"""Closed-form fidelity bounds, coherence times, and resource counts.

All bounds are leading-order upper bounds on query infidelity of the form
4 * eps' * K, where K weights each code distance's error rate by the time
qubits at that distance stay coherent. Values above 1 are reported as-is
(vacuous as probabilities but still meaningful for equal-fidelity
comparisons); use `vacuous` to test for that.

Distance-exponent conventions: the per-cycle logical rate uses the integer
effective distance d_e = ceil(d/2). The sequential-architecture bound pair
(`bb_infidelity_bound`) evaluates its sum with the smooth d/2 exponent
that its geometric-series asymptote implies; that is an upper bound on the
staircase sum (p^(d/2) >= p^ceil(d/2)) and the two forms then agree to
machine precision at moderate depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

from .noise import (
    CycleCost,
    DistanceProfile,
    SurfaceParams,
    effective_distance,
    logical_error_rate,
)


@dataclass(frozen=True)
class BoundInputs:
    """Tree depth plus the noise and cycle-cost constants used by every bound."""

    n: int
    params: SurfaceParams = SurfaceParams()
    cost: CycleCost = CycleCost()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class GoodFraction:
    """Weighted fraction of error-free branches in an error configuration."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("good fraction must lie in [0, 1]")


@dataclass(frozen=True)
class ResourceEstimate:
    per_layer: tuple[tuple[int, int, int], ...]  # (level, logical qubits, distance)
    physical_total: int


def vacuous(bound: float) -> bool:
    """True when a bound exceeds 1 and is trivial as a probability."""
    return bound > 1.0


# ---------------------------------------------------------------------------
# uniform bucket brigade


def uniform_bb_query_time(n: int, d: int, cost: CycleCost) -> int:
    """Code cycles for one pipelined query at uniform distance d: 4dc(1+4n)."""
    return 4 * d * cost.c * (1 + 4 * n)


def uniform_bb_infidelity(inputs: BoundInputs, d: int) -> float:
    """4 * eps_L(d) * T_n * n with T_n = 4dc(1+4n)."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    rate = logical_error_rate(inputs.params, d)
    return 4.0 * rate * uniform_bb_query_time(inputs.n, d, inputs.cost) * inputs.n


# ---------------------------------------------------------------------------
# heterogeneous good-fraction machinery


def expected_good_fraction(
    inputs: BoundInputs,
    profile: DistanceProfile,
    coherence: Callable[[int], float],
) -> tuple[GoodFraction, GoodFraction]:
    """Exact product over levels and its binomial first-order approximation.

    Returns (prod_l (1-eps_l)^{T_l},  (1-eps')^K) with K the rate-weighted
    coherence sum; `coherence` maps a tree level to its coherent cycles.
    """
    eps_prime = inputs.params.epsilon_prime
    exact = 1.0
    k_sum = 0.0
    for level in range(inputs.n + 1):
        t = coherence(level)
        if t < 0:
            raise ValueError("negative coherence time")
        d = profile.distance(level)
        eps = logical_error_rate(inputs.params, d)
        exact *= (1.0 - eps) ** t
        k_sum += inputs.params.p_ratio ** effective_distance(d) * t
    approx = (1.0 - eps_prime) ** k_sum
    return GoodFraction(exact), GoodFraction(min(approx, 1.0))


def k_factor(inputs: BoundInputs, coherence: Callable[[int], float]) -> float:
    """K(n) = sum_{d=1}^{n+1} (p')^{d_e} T_d, `coherence` mapping distance to cycles."""
    p = inputs.params.p_ratio
    return sum(
        p ** effective_distance(d) * coherence(d) for d in range(1, inputs.n + 2)
    )


def hetero_bound(inputs: BoundInputs, coherence: Callable[[int], float]) -> float:
    """Leading-order infidelity bound 4 * eps' * K(n)."""
    return 4.0 * inputs.params.epsilon_prime * k_factor(inputs, coherence)


# ---------------------------------------------------------------------------
# fat-tree implementation (block routing)


def ft_coherence_time(inputs: BoundInputs, level: int) -> int:
    """Cycles a level-j router stays coherent under block routing: the
    distance sum `ft_coherence_time_by_distance` at d = n - j + 1, so
    empty (0) at the leaf level."""
    n = inputs.n
    if not 0 <= level <= n:
        raise ValueError(f"level {level} outside [0, {n}]")
    return ft_coherence_time_by_distance(inputs, n - level + 1)


def ft_coherence_time_by_distance(inputs: BoundInputs, d: int) -> int:
    """T_d = sum_{k=2}^{d} [(k+1) * 2kc + ks]: block routing's one coherence
    sum, indexed by code distance d = n - level + 1 (it does not read n)."""
    c, s = inputs.cost.c, inputs.cost.s
    return sum((k + 1) * 2 * k * c + k * s for k in range(2, d + 1))


def _ft_inner_time(inputs: BoundInputs, d: int) -> int:
    """sum_{d'=2}^{d} (d'+1)(2 d' c + s): block work while at distance <= d,
    which is T_d plus one s per d'."""
    return ft_coherence_time_by_distance(inputs, d) + (d - 1) * inputs.cost.s


def ft_k_closed_form(inputs: BoundInputs) -> float:
    """n -> infinity limit of the block-routing K sum, in closed form (it
    does not read `inputs.n`).

    The distances 2m-1 and 2m share the effective distance m, so the sum
    is sum_{m>=1} f(m) p^m with f(m) = (2m-2) I(2m-1) + (2m-1) I(2m) and I
    the inner time sum `_ft_inner_time`, a cubic in d. So f is a quartic in
    m, and Newton's forward differences f(m) = sum_j C(m-1, j) D^j f(1) with
    sum_{m>=1} C(m-1, j) p^m = (p/(1-p))^(j+1) give
    K = sum_{j=0}^{4} D^j f(1) (p/(1-p))^(j+1), exact in integers up to the
    powers of p/(1-p).
    """
    diffs = [(2 * m - 2) * _ft_inner_time(inputs, 2 * m - 1)
             + (2 * m - 1) * _ft_inner_time(inputs, 2 * m) for m in range(1, 6)]
    x = inputs.params.p_ratio / (1.0 - inputs.params.p_ratio)
    total = 0.0
    for j in range(5):
        total += diffs[0] * x ** (j + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total


def ft_infidelity_bound(inputs: BoundInputs) -> tuple[float, float]:
    """(exact double sum, closed form) for the block-routing bound.

    exact = 4 eps' sum_{d=1}^{n+1} p'^{d_e} (d-1) sum_{d'=2}^{d} (d'+1)(2d'c+s);
    the closed form is its n -> infinity limit.
    """
    p = inputs.params.p_ratio
    total = 0.0
    for d in range(1, inputs.n + 2):
        total += p ** effective_distance(d) * (d - 1) * _ft_inner_time(inputs, d)
    eps4 = 4.0 * inputs.params.epsilon_prime
    return eps4 * total, eps4 * ft_k_closed_form(inputs)


# ---------------------------------------------------------------------------
# sequential (bucket-brigade style) heterogeneous implementation


def bb_coherence_time(inputs: BoundInputs, level: int) -> int:
    """Conservative coherence of a level-i router under pipelined routing:
    `bb_coherence_time_by_distance` at d = n - i + 1, so 2nc(1 + 4(n-i))."""
    n = inputs.n
    if not 0 <= level <= n:
        raise ValueError(f"level {level} outside [0, {n}]")
    return bb_coherence_time_by_distance(inputs, n - level + 1)


def bb_coherence_time_by_distance(inputs: BoundInputs, d: int) -> int:
    """T_d = 2nc(1 + 4(d-1)), indexed by code distance d = n - level + 1."""
    return 2 * inputs.n * inputs.cost.c * (1 + 4 * (d - 1))


def bb_infidelity_bound(inputs: BoundInputs) -> tuple[float, float]:
    """(finite sum, asymptotic form) for the pipelined bound.

    finite = 4 eps' 2nc sum_{d=1}^{n+1} p'^{d/2} (4d-3);
    asymptotic = 8 eps' n c sqrt(p')(1+3 sqrt(p'))/(1-sqrt(p'))^2.
    Both use the smooth d/2 exponent (see module docstring).
    """
    n, c = inputs.n, inputs.cost.c
    p = inputs.params.p_ratio
    x = math.sqrt(p)
    finite = sum(x**d * (4 * d - 3) for d in range(1, n + 2))
    exact = 4.0 * inputs.params.epsilon_prime * 2 * n * c * finite
    asym = 8.0 * inputs.params.epsilon_prime * n * c * x * (1 + 3 * x) / (1 - x) ** 2
    return exact, asym


# ---------------------------------------------------------------------------
# resource estimates (3 d^2 physical qubits per logical qubit)


def _tree_resources(
    n: int, efficient: bool, logical: Callable[[int], int]
) -> ResourceEstimate:
    """Per-level rows (level, logical(level), distance) of the linear or
    (efficient) odd-paired profile, and their 3 d^2 physical packing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    profile = DistanceProfile.odd_paired(n) if efficient else DistanceProfile.linear(n)
    rows = tuple((i, logical(i), profile.distance(i)) for i in range(n + 1))
    return ResourceEstimate(rows, sum(3 * q * d * d for _, q, d in rows))


def ft_resources(n: int, efficient: bool = False) -> ResourceEstimate:
    """Per-level logical counts 2^i (n-i+2) and the 3 d^2 physical packing."""
    return _tree_resources(n, efficient, lambda i: (1 << i) * (n - i + 2))


def bb_resources(n: int, efficient: bool = False) -> ResourceEstimate:
    """Per-level logical counts 3 * 2^i and the 3 d^2 physical packing."""
    return _tree_resources(n, efficient, lambda i: 3 * (1 << i))


def uniform_resources(n: int, d: int) -> ResourceEstimate:
    """18 d^2 N physical qubits: ~6N logical routers/modes at one distance."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    logical = 6 * (1 << n)
    return ResourceEstimate(((0, logical, d),), 3 * logical * d * d)


def min_uniform_distance(
    n: int, target_infidelity: float, inputs: BoundInputs, d_max: int = 199
) -> int:
    """Smallest d whose uniform-BB bound does not exceed the target."""
    if not 0.0 < target_infidelity:
        raise ValueError("target infidelity must be positive")
    for d in range(1, d_max + 1):
        if uniform_bb_infidelity(inputs, d) <= target_infidelity:
            return d
    raise ValueError(f"no distance <= {d_max} reaches target {target_infidelity}")


# ---------------------------------------------------------------------------
# single-qubit router correction (error propagation into good branches)


def qubit_router_delta(arch: Literal["ft", "bb"], inputs: BoundInputs) -> float:
    """Good-branch loss rate delta for single-qubit routers.

    delta = sum_d (n-d) eps''_d T_d with the architecture's coherence time;
    block routing multiplies by the (d-1) address qubits that can corrupt
    a node. The adjusted good fraction is (1-delta) E[Lambda].
    """
    n = inputs.n
    p = inputs.params.p_ratio
    eps_prime = inputs.params.epsilon_prime
    total = 0.0
    for d in range(1, n + 2):
        weight = max(n - d, 0)
        if weight == 0:
            continue
        eps_d = eps_prime * p ** effective_distance(d)
        if arch == "ft":
            t_d = ft_coherence_time_by_distance(inputs, d)
            eps_d *= d - 1
        elif arch == "bb":
            t_d = bb_coherence_time_by_distance(inputs, d)
        else:
            raise ValueError(f"arch must be 'ft' or 'bb', got {arch!r}")
        total += weight * eps_d * t_d
    return total


def uniform_qubit_delta(inputs: BoundInputs, d: int) -> float:
    """delta = eps_L T n^2 for the uniformly corrected single-qubit router tree."""
    rate = logical_error_rate(inputs.params, d)
    return rate * uniform_bb_query_time(inputs.n, d, inputs.cost) * inputs.n**2
