"""Surface-code noise: distance profiles, per-level logical error rates,
and where a schedule's noise lands.

The per-cycle logical error rate is eps' * (p')^{d_e} with the effective
distance d_e = ceil(d/2). Because an even distance shares its d_e with
the odd distance below it, the odd-paired profile (1,1,3,3,5,5,... read
from the leaves) matches the linear profile's rates level for level while
using smaller patches.
"""

from hetqram import (
    DistanceProfile,
    NoiseModel,
    NoisePlan,
    SurfaceParams,
    build_bb_hetero,
    effective_distance,
    level_error_rate,
    logical_error_rate,
)
from hetqram.noise import net_flip_probability

params = SurfaceParams(epsilon_prime=0.03, p_ratio=0.1)

print("d  d_e  rate per cycle")
for d in range(1, 9):
    print(f"{d}   {effective_distance(d)}   {logical_error_rate(params, d):.2e}")

n = 6
linear = DistanceProfile.linear(n)
paired = DistanceProfile.odd_paired(n)
print("\nlevel  linear-d  paired-d  rate (identical)")
for level in range(n + 1):
    assert level_error_rate(params, linear, level) == level_error_rate(params, paired, level)
    print(
        f"{level}      {linear.distance(level)}         {paired.distance(level)}"
        f"         {level_error_rate(params, linear, level):.2e}"
    )

# where noise lands: after each phase of a small tree, on its live qubits,
# as one net X and one net Z flip with the odd-parity chance of its rounds
sched = build_bb_hetero(3, "qutrit", [1, 0, 0, 1, 1, 1, 0, 1])
plan = NoisePlan(sched, NoiseModel(params, sched.profile))
print("\nbb-hetero n=3 noise plan: net X (= Z) flip chance per live qubit, by level")
print("layer  rounds  live  " + "  ".join(f"level {l}" for l in range(sched.n + 1)))
for step in plan.steps:
    live = sum(g.qubits.size for g in step.groups)
    flip = {g.level: net_flip_probability(g.px, step.rounds) for g in step.groups}
    cells = "  ".join(f"{flip[l]:.1e}" if l in flip else "   -   " for l in range(sched.n + 1))
    print(f"{step.layer:5d}  {step.rounds:6d}  {live:4d}  {cells}")
