"""Word-by-word reference trajectory, the oracle for the bit-plane engine.

All 2^n address branches run as plain integer words through
`Gate.apply_to_word`. After a layer, an X event flips a bit of every
branch and a Z event flips the sign of every branch holding a 1 there.
Each branch is then read at its output mask against `Schedule.ideal_word`;
the fidelity is the squared overlap, with corrupted branches counted as
orthogonal junk. Only the schedule and its `NoisePlan` are shared with
`PlaneEngine`: no packing, no event codes, no class pooling.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from hetqram.circuits import Schedule
from hetqram.noise import NoiseModel, NoisePlan, PauliEvent, net_flip_probability

#: a schedule has only a few distinct (rate, rounds) pairs, drawn from every trial
_flip_probability = lru_cache(maxsize=None)(net_flip_probability)


def reference_fidelity(schedule: Schedule, events_by_layer: dict[int, list[PauliEvent]]) -> float:
    """Fidelity of one superposition-mode trajectory whose Pauli events
    land after the layers named by `events_by_layer`, in list order."""
    addresses = range(1 << schedule.n)
    words = [schedule.initial_word(a) for a in addresses]
    signs = [1] * len(words)
    for li, layer in enumerate(schedule.layers):
        for gate in layer.gates:
            words = [gate.apply_to_word(w) for w in words]
        for ev in events_by_layer.get(li, ()):
            bit = 1 << ev.qubit
            if ev.kind == "X":
                words = [w ^ bit for w in words]
            else:
                signs = [-s if w & bit else s for s, w in zip(signs, words)]
    weight = 2.0 ** -schedule.n
    overlap = 0.0
    for a, w, s in zip(addresses, words, signs):
        ideal = schedule.ideal_word(a)
        good = all(((w >> q) & 1) == ((ideal >> q) & 1) for q in schedule.output_mask(a))
        overlap += weight * s * good
    return overlap**2


def sampled_events(
    schedule: Schedule, noise: NoiseModel, rng: np.random.Generator
) -> dict[int, list[PauliEvent]]:
    """One trial's net Pauli flips, drawn from the schedule's `NoisePlan`.

    Per noise step, live qubits in ascending order each toss an X coin and
    then a Z coin at the net flip probability of the step's rounds; a kind
    with no rate draws nothing.
    """
    events: dict[int, list[PauliEvent]] = {}
    for step in NoisePlan(schedule, noise).steps:
        flips = []
        for g in step.groups:
            coins = (("X", _flip_probability(g.px, step.rounds)),
                     ("Z", _flip_probability(g.pz, step.rounds)))
            flips += [(q, coins) for q in g.qubits.tolist()]
        hits = []
        for q, coins in sorted(flips, key=lambda e: e[0]):
            for kind, flip in coins:
                if flip and rng.random() < flip:
                    hits.append(PauliEvent(q, kind))
        events[step.layer] = hits
    return events
