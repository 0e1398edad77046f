"""Gate-by-gate reference compile, the oracle for `PlaneEngine._compile`.

Walks every `Gate` of every layer in order, as the engine's compile did
before layers became gate tables: a controlled swap joins the group of
its control polarities with its physical rows (a, b, then each control),
a plain swap exchanges two entries of the logical-to-physical row map,
and an X or a data copy of a 1 inverts its row. Only the schedule's
`Layer.gates` are shared with the engine: no gate tables, no sorting.
"""

from __future__ import annotations

import numpy as np

from hetqram.circuits import GateKind, Schedule


def reference_compile(schedule: Schedule, keep) -> tuple[list[tuple], dict[int, np.ndarray]]:
    """Each layer's `(groups, inverts)`, with `groups` a dict from
    polarity pattern to the list of its swaps' row tuples, and the row
    map after each layer in `keep`."""
    row = list(range(schedule.qubit_count))
    layers, maps = [], {}
    for li, layer in enumerate(schedule.layers):
        groups: dict[tuple, list] = {}
        inverts = []
        for g in layer.gates:
            if g.controls:
                a, b = g.operands
                pols = tuple(pol for _, pol in g.controls)
                rows = (row[a], row[b], *(row[c] for c, _ in g.controls))
                groups.setdefault(pols, []).append(rows)
            elif g.kind is GateKind.SWAP:
                a, b = g.operands
                row[a], row[b] = row[b], row[a]
            elif g.kind is GateKind.X or (g.kind is GateKind.CLASSICAL_CX and g.data_bit):
                inverts.append(row[g.operands[0]])
        layers.append((groups, inverts))
        if li in keep:
            maps[li] = np.array(row)
    return layers, maps
