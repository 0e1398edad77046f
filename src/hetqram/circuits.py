"""Layered query-circuit builders for the four QRAM architectures.

Every builder produces a Schedule: an ordered list of gate layers over a
fixed qubit registry, each layer tagged with its code-cycle cost (the most
expensive gate in the layer sets the cost: c*d cycles for a controlled
swap at distance d, s*d for a plain swap or X). Registry qubits carry a
tree level (root = 0, leaves = n) and a role tag.

Gate tables: a layer holds its gates as one int64 array, one row per gate
(`GateTable` names the columns and kind codes): the kind, operands a and
b, two (control, polarity) pairs and the data bit, with -1 wherever a
gate has fewer operands or controls. The builders write the tables, a
whole tree level's gates in a few numpy calls from the registry's mode
arrays (`_move`, `_route`, `_steer_route`, the walker hop, the data
copy). `_LayerAccum.seal` checks every layer of a schedule and prices it
from the tables, with one fixed set of numpy calls for all the layers;
the return pass reuses the descent's tables. `Schedule` range-checks the
tables and takes each qubit's first and last layer from them
(`first_active_layer`, `measured_coherence_cycles`, `unread_from`), and
`PlaneEngine._compile` (engine.py) compiles them. `Layer.gates` is
derived from the table on first access, for the per-word readers
(`run_noiseless`, `Schedule.dump`, the sparse branch states and the test
oracles); the simulation path never builds a `Gate`.

Address map: where an address enters a tree and where its answer is
read is schedule data. The builders (`_tree_schedule`, `build_walker`)
fill three `Schedule` fields from their mode arrays: `address_rails`,
the qubit that address bit k sets when it is 0 or 1 (-1 for none);
`set_qubits`, set in every initial word; and `readout_tables`, whose
tables of 2^l modes are indexed by the address's top l bits, the rows
in turn making its output mask. `PlaneEngine._span` reads the map for
all its columns at once (`set_cells`, `output_masks`), the per-word
readers one address at a time (`initial_word`, `output_mask`). Only
`decode`, which just the per-word checks call, stays a builder closure,
and it turns the modes it reads into Python lists on its first call.

Conventions shared by all architectures:

* Address integers are read big-endian along the tree: the bit routed at
  level l is (address >> (n-1-l)) & 1, and 0 routes to the left child
  (node 2j), 1 to the right (node 2j+1), so the bus lands on leaf index
  == address.
* A mode is a row of qubits, one per rail. A transit mode is (value,
  presence) and a router (direction, active) under qutrit routers, whose
  wait state |W> is active = 0 and |0>, |1> are active = 1 with that
  direction. Qubit routers drop the second rail: both modes are
  (value,) / (direction,), and the bus carries a marker value of 1 so
  delivery is observable. The router kind is only the modes' width:
  parking a payload is `_move(rail, router)`, plain swaps rail by rail,
  and routing it is `_route`, controlled swaps rail by rail, so only
  routers that really received an address bit leave the wait state. The
  registry hands out a level's modes as one (nodes, width) array, so one
  call moves or routes every node of a level.
* The bucket brigades and the walker share one sequential-address
  pipeline (`_pipeline_layers`), which owns its timing rule and makes
  each level's routing gates once; the fat tree routes whole blocks.
* The descent ends with the classical data copy at the leaves. The
  router trees can mirror it afterwards (round_trip): the bus is routed
  back up and the address uncomputed, so the output is read at the root.
  Fidelity is always measured against the noiseless run of the same
  schedule.

A layer may contain several gates that share an identical control set
(the two bit-moves of one transit mode under the same router controls);
such a group is one controlled qutrit-mode swap physically, and layer
cost counts it once. Operand sets are always pairwise disjoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .noise import CycleCost, DistanceProfile


class GateKind(enum.Enum):
    SWAP = "SWAP"
    CSWAP = "CSWAP"
    CCSWAP = "CCSWAP"
    X = "X"
    CLASSICAL_CX = "CLASSICALCX"


class GateTable:
    """The layout of a layer's gate table: an int64 array of one row per
    gate, whose columns are `KIND`, `A`, `B`, `C0`, `C1`, `P0`, `P1`,
    `DATA`. A row holds its gate's kind code, its operands a and b, its
    controls' qubits c0, c1 and polarities p0, p1, and its data bit; an
    entry the gate does not have (b of an X or data copy, a missing
    control and its polarity) is -1, and the data bit of every gate but
    the copy is 0. The kind code indexes `KINDS`; a swap's code is its
    number of controls.
    """

    KIND, A, B, C0, C1, P0, P1, DATA = range(8)
    SWAP, CSWAP, CCSWAP, X, COPY = range(5)
    KINDS = (GateKind.SWAP, GateKind.CSWAP, GateKind.CCSWAP, GateKind.X, GateKind.CLASSICAL_CX)
    #: by kind code, which of the qubit columns A, B, C0, C1 the gate has
    PRESENT = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0]],
                       dtype=bool)


_T = GateTable
_CODES = {kind: code for code, kind in enumerate(_T.KINDS)}


@dataclass(frozen=True)
class Gate:
    """One permutation gate: plain/controlled swap, X, or classical data copy."""

    kind: GateKind
    operands: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    data_bit: int = 0

    @classmethod
    def swap(cls, a: int, b: int) -> "Gate":
        if a == b:
            raise ValueError("duplicate operand")
        return cls(GateKind.SWAP, (a, b))

    @classmethod
    def cswap(cls, controls: Sequence[tuple[int, int]], a: int, b: int) -> "Gate":
        controls = tuple(controls)
        if len(controls) == 1:
            kind = GateKind.CSWAP
        elif len(controls) == 2:
            kind = GateKind.CCSWAP
        else:
            raise ValueError("controlled swap takes 1 or 2 controls")
        gate = cls(kind, (a, b), controls)
        gate._validate()
        return gate

    @classmethod
    def x(cls, q: int) -> "Gate":
        return cls(GateKind.X, (q,))

    @classmethod
    def classical_cx(cls, data_bit: int, target: int) -> "Gate":
        if data_bit not in (0, 1):
            raise ValueError("data_bit must be 0 or 1")
        return cls(GateKind.CLASSICAL_CX, (target,), data_bit=data_bit)

    def _validate(self) -> None:
        # passing path: one set, which is short of one qubit per control
        # and operand when a qubit repeats or a polarity is not 0 or 1
        qubits = set(self.operands)
        for q, pol in self.controls:
            if pol == 0 or pol == 1:
                qubits.add(q)
        if len(qubits) == len(self.controls) + len(self.operands):
            return
        ctrl_qubits = {q for q, _ in self.controls}
        if len(ctrl_qubits) != len(self.controls):
            raise ValueError("duplicate control qubit")
        if ctrl_qubits & set(self.operands):
            raise ValueError("controls overlap operands")
        if len(set(self.operands)) != len(self.operands):
            raise ValueError("duplicate operand")
        for _, pol in self.controls:
            if pol not in (0, 1):
                raise ValueError("polarity must be 0 or 1")

    def support(self) -> set[int]:
        return set(self.operands) | {q for q, _ in self.controls}

    def apply_to_word(self, word: int) -> int:
        """Permutation action on a classical word."""
        k = self.kind
        if k is GateKind.SWAP or k is GateKind.CSWAP or k is GateKind.CCSWAP:
            if all(((word >> q) & 1) == pol for q, pol in self.controls):
                a, b = self.operands
                if ((word >> a) & 1) != ((word >> b) & 1):
                    word ^= (1 << a) | (1 << b)
            return word
        if k is GateKind.X:
            return word ^ (1 << self.operands[0])
        if k is GateKind.CLASSICAL_CX:
            return word ^ (self.data_bit << self.operands[0])
        raise AssertionError(k)

    def _dump(self) -> str:
        if self.kind is GateKind.SWAP:
            return f"SWAP(a=q{self.operands[0]},b=q{self.operands[1]})"
        if self.kind in (GateKind.CSWAP, GateKind.CCSWAP):
            ctrls = ",".join(
                f"ctrl=q{q}{'+' if pol else '-'}" for q, pol in self.controls
            )
            return f"{self.kind.value}({ctrls},a=q{self.operands[0]},b=q{self.operands[1]})"
        if self.kind is GateKind.X:
            return f"X(q=q{self.operands[0]})"
        return f"CLASSICALCX(data={self.data_bit},q=q{self.operands[0]})"


def _gate_rows(kind: int, a, b=-1, c0=-1, c1=-1, p0=-1, p1=-1, data=0) -> np.ndarray:
    """A gate table of one `kind` row per element of `a`: the operands `a`
    and `b` are raveled, and every other column is a scalar or a vector
    with one entry per row."""
    a = np.ravel(a)
    table = np.empty((a.size, 8), dtype=np.int64)
    table[:, _T.KIND] = kind
    table[:, _T.A] = a
    table[:, _T.B] = np.ravel(b)
    table[:, _T.C0] = c0
    table[:, _T.C1] = c1
    table[:, _T.P0] = p0
    table[:, _T.P1] = p1
    table[:, _T.DATA] = data
    return table


def _gate_table(gates: Iterable[Gate]) -> np.ndarray:
    """The gate table of `gates`, row by row."""
    rows = []
    for g in gates:
        ops = g.operands + (-1,) * (2 - len(g.operands))
        (c0, p0), (c1, p1) = g.controls + ((-1, -1),) * (2 - len(g.controls))
        rows.append((_CODES[g.kind], *ops, c0, c1, p0, p1, g.data_bit))
    return np.array(rows, dtype=np.int64).reshape(-1, 8)


def _table_gates(table: np.ndarray) -> tuple[Gate, ...]:
    """The `Gate`s of a gate table's rows, in order (unchecked)."""
    gates = []
    for code, a, b, c0, c1, p0, p1, data in table.tolist():
        if code <= _T.CCSWAP:  # a swap with `code` controls
            gates.append(Gate(_T.KINDS[code], (a, b), ((c0, p0), (c1, p1))[:code]))
        else:
            gates.append(Gate(_T.KINDS[code], (a,), data_bit=data))
    return tuple(gates)


@dataclass(frozen=True, eq=False)
class Layer:
    """Parallel gates plus their timing and noise accounting.

    `table` holds the gates (`GateTable`); `gates` derives them as `Gate`
    objects on first access. code_cycles prices the layer for
    coherence-time bookkeeping (per-gate step cost times code distance,
    maximized over the layer). noise_rounds is how many error-sampling
    rounds the layer inflicts: the largest code distance among its gates,
    with no step-cost factor. phase groups the sub-layers of one parallel
    routing step (a router's left and right polarity moves are one
    operation); noise is applied once per phase.
    """

    table: np.ndarray
    code_cycles: int
    noise_rounds: int = 1
    phase: int = 0

    @classmethod
    def of_gates(
        cls, gates: Iterable[Gate], code_cycles: int, noise_rounds: int = 1, phase: int = 0
    ) -> "Layer":
        return cls(_gate_table(gates), code_cycles, noise_rounds, phase)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        return _table_gates(self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layer):
            return NotImplemented
        return ((self.code_cycles, self.noise_rounds, self.phase)
                == (other.code_cycles, other.noise_rounds, other.phase)
                and np.array_equal(self.table, other.table))

    def touched(self) -> set[int]:
        qubits = self.table[:, _T.A:_T.C1 + 1][_T.PRESENT[self.table[:, _T.KIND]]]
        return set(qubits.tolist())


def _first_fault(rows: np.ndarray, layer: np.ndarray, qubits: int) -> int | None:
    """The first layer whose gates break a condition of `Gate._validate`
    or of `_check_layer_parallel`, or None: `rows` holds the gate tables of the
    layers in turn, `layer` each row's layer, and `qubits` bounds their
    qubits.

    A layer passes when every present polarity is 0 or 1 and each qubit
    appears once among its operands and the qubits of its distinct
    control sets. All layers are checked by one fixed set of numpy calls:
    each qubit is offset by its layer times `qubits`, so layers never
    collide, and a control set is one key of its layer and its sorted
    pair of 2q + p codes (-3 for a missing control), deduplicated by a
    sort.
    """
    ctl, pol = rows[:, _T.C0:_T.C1 + 1], rows[:, _T.P0:_T.P1 + 1]
    bad_polarity = np.any((ctl >= 0) & ((pol & ~1) != 0), axis=1)
    # only controlled swaps have controls; a row with a bad polarity is
    # already flagged and stays out of the keys, whose codes it would alias
    swaps = (ctl[:, 0] >= 0) & ~bad_polarity
    offset = layer * qubits
    ops = rows[:, _T.A:_T.B + 1]
    v = 2 * ctl[swaps] + pol[swaps]
    span = 2 * qubits + 3
    keys = np.sort((layer[swaps] * span + v.max(axis=1)) * span + v.min(axis=1) + 3)
    keys = keys[np.diff(keys, prepend=-1) != 0]  # every key is >= 0
    high, low = np.divmod(keys, span)
    at, high = np.divmod(high, span)
    low -= 3
    flat = np.sort(np.concatenate([
        (ops + offset[:, None])[ops >= 0],
        (high >> 1) + at * qubits,
        ((low >> 1) + at * qubits)[low >= 0],
    ]))
    twice = flat[1:][flat[1:] == flat[:-1]] // qubits
    faulty = np.concatenate([layer[bad_polarity], twice])
    return int(faulty.min()) if faulty.size else None


def _check_layer_parallel(gates: Sequence[Gate]) -> None:
    """Operands pairwise disjoint; control sets disjoint or identical.

    Identical control sets mark the bit-moves of one controlled
    qutrit-mode swap, which execute as a single operation. Raises the
    first condition that `gates` break, if any, condition by condition;
    a gate's own faults are `Gate`'s to check.
    """
    seen_ops: set[int] = set()
    all_ctrl: set[int] = set()
    for g in gates:
        ops = set(g.operands)
        if ops & seen_ops:
            raise ValueError(f"overlapping operands in layer: {g}")
        seen_ops |= ops
        all_ctrl |= {q for q, _ in g.controls}
    if seen_ops & all_ctrl:
        raise ValueError("a control qubit is another gate's operand in the same layer")
    groups: dict[frozenset, None] = {}
    for g in gates:
        if g.controls:
            groups.setdefault(frozenset(g.controls), None)
    flat: list[int] = []
    for grp in groups:
        flat.extend(q for q, _ in grp)
    if len(flat) != len(set(flat)):
        raise ValueError("overlapping but non-identical control sets in layer")


class _Registry:
    """Qubit levels and roles in allocation order; a qubit's index is its
    position. A mode is a row of qubits, one per rail."""

    def __init__(self):
        self.levels: list[int] = []
        self.roles: list[str] = []

    def _take(self, level: int, roles: tuple[str, ...]) -> np.ndarray:
        """One qubit per role, in order."""
        first = len(self.roles)
        self.roles += roles
        self.levels += [level] * len(roles)
        return np.arange(first, len(self.roles))

    def mode(self, level: int, *roles: str) -> np.ndarray:
        """One mode with a rail per role."""
        return self._take(level, roles)

    def modes(self, count: int, level: int, *roles: str) -> np.ndarray:
        """`count` modes, a (count, rails) array, allocated rail by rail:
        every mode's first rail, then every mode's second."""
        return np.stack([self._take(level, (role,) * count) for role in roles], axis=1)

    def nodes(self, count: int, level: int, *roles: str) -> np.ndarray:
        """`count` modes, one per tree node, a (count, rails) array
        allocated mode by mode."""
        return self._take(level, roles * count).reshape(count, len(roles))


def validate_database(bits: Sequence[int], n: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in bits)
    if len(bits) != 1 << n:
        raise ValueError(f"database must hold exactly 2^{n} = {1 << n} bits")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("database entries must be 0 or 1")
    return bits


@dataclass
class Schedule:
    """A built query circuit: registry, layers, address map (see the
    module docstring) and decoder."""

    architecture: str
    router_kind: str
    n: int
    levels: tuple[int, ...]
    roles: tuple[str, ...]
    layers: tuple[Layer, ...]
    profile: DistanceProfile
    cost: CycleCost
    database: tuple[int, ...]
    input_qubits: tuple[int, ...] = ()
    address_rails: np.ndarray | None = field(repr=False, compare=False, default=None)
    set_qubits: np.ndarray | None = field(repr=False, compare=False, default=None)
    readout_tables: tuple[np.ndarray, ...] = field(repr=False, compare=False, default=())
    _decode_fn: Callable[[int], tuple[int, int, bool]] = field(repr=False, default=None)

    def __post_init__(self):
        tables = [layer.table for layer in self.layers]
        rows = np.concatenate(tables) if tables else np.empty((0, 8), dtype=np.int64)
        present = _T.PRESENT[rows[:, _T.KIND]]
        qubits = rows[:, _T.A:_T.C1 + 1][present]
        if qubits.size and (qubits.min() < 0 or qubits.max() >= self.qubit_count):
            bad = qubits[(qubits < 0) | (qubits >= self.qubit_count)]
            raise ValueError(f"gate touches unregistered qubit {bad[0]}")
        # each qubit's first and last layer (len(layers) and -1 if none
        # touches it)
        layer = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
        layer = (present * layer[:, None])[present]
        self._first_touch = np.full(self.qubit_count, len(tables))
        np.minimum.at(self._first_touch, qubits, layer)
        self._last_touch = np.full(self.qubit_count, -1)
        np.maximum.at(self._last_touch, qubits, layer)
        self._ideal_cache: dict[int, int] = {}

    def first_active_layer(self) -> tuple[int, ...]:
        """Layer index at which each qubit's patch comes alive.

        Input qubits hold the query register and live from layer 0; any
        other patch is allocated by the first gate that touches it and
        only accumulates noise from then on. Untouched non-input qubits
        report len(layers) (never active).
        """
        first = self._first_touch.copy()
        first[list(self.input_qubits)] = 0
        return tuple(first.tolist())

    def unread_from(self) -> np.ndarray:
        """Each qubit's layer after whose gates nothing reads it any more:
        the layer of the last gate that touches it (any kind: a swap's
        operand or control, an X, a data copy), -1 if none does, or
        len(layers) for a qubit that a readout table holds."""
        last = self._last_touch.copy()
        if self.readout_tables:
            last[np.concatenate([t.ravel() for t in self.readout_tables])] = len(self.layers)
        return last

    @property
    def qubit_count(self) -> int:
        return len(self.levels)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def total_cycles(self) -> int:
        return sum(layer.code_cycles for layer in self.layers)

    # -- the address map, for arrays of addresses --------------------------

    def set_cells(self, addresses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(qubit, column) of every qubit that column c's initial word sets,
        column c holding addresses[c]: the set qubits of every column, then
        the rail that each address bit picks."""
        addresses = np.asarray(addresses, dtype=np.int64)
        bits = (addresses >> np.arange(self.n - 1, -1, -1)[:, None]) & 1  # (n, C)
        qubits = np.vstack([np.repeat(self.set_qubits[:, None], addresses.size, axis=1),
                            np.take_along_axis(self.address_rails, bits, axis=1)])
        row, column = np.nonzero(qubits >= 0)
        return qubits[row, column], column

    def output_masks(self, addresses: np.ndarray) -> np.ndarray:
        """(C, m) array whose row c is `output_mask(addresses[c])`."""
        addresses = np.asarray(addresses, dtype=np.int64)
        return np.concatenate([table[addresses >> (self.n - len(table).bit_length() + 1)]
                               for table in self.readout_tables], axis=1)

    # -- the address map, one address at a time -----------------------------

    @cached_property
    def _address_lists(self) -> tuple[int, list, list]:
        """The address map as Python values: the word of the set qubits,
        `address_rails` and each readout table with its address shift."""
        return (sum(1 << q for q in self.set_qubits.tolist()),
                self.address_rails.tolist(),
                [(table.tolist(), self.n - len(table).bit_length() + 1)
                 for table in self.readout_tables])

    def initial_word(self, address: int) -> int:
        """The basis word that enters the tree for one address."""
        if not 0 <= address < (1 << self.n):
            raise ValueError(f"address {address} outside [0, 2^{self.n})")
        if self.address_rails is None:
            raise ValueError("schedule has no architecture input map")
        word, rails, _ = self._address_lists
        for k, rail in enumerate(rails):
            q = rail[(address >> (self.n - 1 - k)) & 1]
            if q >= 0:
                word |= 1 << q
        return word

    def output_mask(self, address: int) -> tuple[int, ...]:
        """Qubits that carry the query output for one address branch."""
        if not self.readout_tables:
            raise ValueError("schedule has no output mask")
        return tuple(q for rows, shift in self._address_lists[2] for q in rows[address >> shift])

    def decode(self, word: int) -> tuple[int, int, bool]:
        """(address, data bit, delivered) read from a final basis word."""
        if self._decode_fn is None:
            raise ValueError("schedule has no decoder")
        return self._decode_fn(word)

    def ideal_word(self, address: int) -> int:
        """Noiseless final word for a basis address input (cached)."""
        got = self._ideal_cache.get(address)
        if got is None:
            got = run_noiseless(self, self.initial_word(address))
            self._ideal_cache[address] = got
        return got

    # -- text dump ----------------------------------------------------------

    def dump(self) -> str:
        lines = []
        for k, layer in enumerate(self.layers):
            gates = " ".join(g._dump() for g in layer.gates)
            lines.append(f"L{k} cycles={layer.code_cycles} | {gates}")
        return "\n".join(lines) + "\n"


def run_noiseless(schedule: Schedule, word: int) -> int:
    for layer in schedule.layers:
        for gate in layer.gates:
            word = gate.apply_to_word(word)
    return word


ROUTER_ROLES = frozenset({"router_direction", "router_active"})


def measured_coherence_cycles(schedule: Schedule, level: int) -> int:
    """Code cycles from the first gate on `level`'s routers to the schedule end.

    The coherence formulas describe how long a level's routers must stay
    coherent, so counting starts when a router qubit of that level is
    first operated on (empty transit rails touched while a payload block
    is still arriving do not need coherence yet). Levels without routers
    (the leaves) count from the first gate touching any of their qubits.
    """
    if not 0 <= level <= schedule.n:
        raise ValueError(f"level {level} outside [0, {schedule.n}]")
    on_level = [q for q, l in enumerate(schedule.levels) if l == level]
    watched = [q for q in on_level if schedule.roles[q] in ROUTER_ROLES] or on_level
    start = int(schedule._first_touch[watched].min())
    return sum(layer.code_cycles for layer in schedule.layers[start:])


# ---------------------------------------------------------------------------
# schedule assembly helpers


def _distance_table(levels: Sequence[int], profile: DistanceProfile) -> np.ndarray:
    """The profile's code distance at each registry qubit's level, then a
    0 that a table's -1 entries read."""
    return np.append(np.asarray(profile.distances())[np.asarray(levels)], 0)


class _LayerAccum:
    """Collects a builder's layers as gate tables, then checks and prices
    all of them at once when sealed.

    `distance` is the builder's per-qubit distance table
    (`_distance_table`, made once its registry is complete). Sealing
    checks every layer (`_first_fault`; the first faulty layer's gates
    then name its fault) and prices each gate once: its distance d is the
    largest over its operands and controls. A layer's noise_rounds is its
    largest d, and its code_cycles the largest c*d over controlled swaps
    and s*d over the other gates.
    """

    def __init__(self, distance: np.ndarray, cost: CycleCost):
        self._distance = distance
        self._cost = cost
        self._tables: list[np.ndarray] = []
        self._phases: list[int] = []

    def add(self, phase: int, *tables: np.ndarray) -> None:
        """One layer of `phase` holding the rows of `tables` in turn; no
        tables, no layer."""
        if tables:
            self._tables.append(tables[0] if len(tables) == 1 else np.concatenate(tables))
            self._phases.append(phase)

    def seal(self) -> list[Layer]:
        tables = self._tables
        sizes = [len(t) for t in tables]
        rows = np.concatenate(tables)
        starts = np.cumsum(sizes) - sizes
        faulty = _first_fault(rows, np.repeat(np.arange(len(tables)), sizes),
                              self._distance.size - 1)
        if faulty is not None:
            gates = _table_gates(tables[faulty])
            for g in gates:
                g._validate()
            _check_layer_parallel(gates)
        d = self._distance[rows[:, _T.A:_T.C1 + 1]].max(axis=1)
        swaps = rows[:, _T.C0] >= 0  # only controlled swaps have controls
        d_c = np.maximum.reduceat(np.where(swaps, d, 0), starts)
        d_s = np.maximum.reduceat(np.where(swaps, 0, d), starts)
        cycles = np.maximum(self._cost.c * d_c, self._cost.s * d_s)
        for table in tables:  # layers share tables: a level's routes, the return pass
            table.flags.writeable = False
        return [
            Layer(table, c, rounds, phase)
            for table, c, rounds, phase in zip(
                tables, cycles.tolist(), np.maximum(d_c, d_s).tolist(), self._phases)
        ]


# ---------------------------------------------------------------------------
# router-tree vocabulary: modes, moves and routes


#: the rails of a router mode, in allocation order: (direction, active)
#: for a qutrit router, (direction,) for a qubit router
_ROUTER_ROLES = ("router_direction", "router_active")


def _router_width(router_kind: str) -> int:
    """Rails per router and per transit mode: 2 for qutrit routers, 1 for
    qubit routers."""
    if router_kind not in ("qutrit", "qubit"):
        raise ValueError(f"router_kind must be 'qutrit' or 'qubit', got {router_kind!r}")
    return 2 if router_kind == "qutrit" else 1


def _move(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Plain swaps of modes, mode by mode and rail by rail."""
    return _gate_rows(_T.SWAP, src, dst)


def _route(router: np.ndarray, src: np.ndarray, dst: np.ndarray, bit: int) -> np.ndarray:
    """Controlled swaps of each node's transit mode into its child `bit`
    (0 left, 1 right), rail by rail, fired by the node's router: its
    active rail (if any) at 1 and its direction at `bit`. Each argument
    holds one mode per node."""
    fire = np.repeat(router, src.shape[-1], axis=0)  # each rail's router
    if router.shape[-1] == 1:
        return _gate_rows(_T.CSWAP, src, dst, c0=fire[:, 0], p0=bit)
    return _gate_rows(_T.CCSWAP, src, dst, c0=fire[:, 1], c1=fire[:, 0], p0=1, p1=bit)


def _append_return_pass(layers: list[Layer]) -> None:
    """Mirror the descent (every layer but the data copy) after the copy,
    one phase per layer from the next free phase on; the mirrored layers
    share the descent's tables."""
    descent = [l for l in layers if not np.any(l.table[:, _T.KIND] == _T.COPY)]
    base = layers[-1].phase + 1
    layers.extend(
        Layer(src.table, src.code_cycles, src.noise_rounds, base + i)
        for i, src in enumerate(reversed(descent))
    )


def _data_copy(leaves: np.ndarray, database: Sequence[int]) -> np.ndarray:
    """The classical copy of each database bit onto its leaf's value rail."""
    return _gate_rows(_T.COPY, leaves[:, 0], data=np.asarray(database))


def _tree_schedule(
    architecture: str,
    n: int,
    reg: _Registry,
    layers: list[Layer],
    profile: DistanceProfile,
    cost: CycleCost,
    database: tuple[int, ...],
    round_trip: bool,
    *,
    roots: np.ndarray,
    routers: Sequence[np.ndarray],
    leaves: np.ndarray,
) -> Schedule:
    """A router tree's Schedule with its address map and decoder.

    `roots` are the modes of the root slots: the n address slots, then the
    bus. `routers[l]` holds level l's router modes by node and `leaves`
    each leaf's mode. The readout reads only the width of the modes: a
    mode's first rail carries its value, and every later rail (presence,
    under qutrit routers) starts at 1 in the address modes and must still
    be 1 in the modes read for the query to count as delivered. The bus's
    last rail starts at 1, so a one-rail bus carries the marker 1 and its
    copied value reads inverted, so address bit k sets only its value
    rail (when 1) and every initial word sets the address modes' later
    rails and the bus's last. With round_trip the descent is mirrored
    after the copy and the output is read back at the root slots; without
    it, at the routers on the path and the leaf.
    """
    if round_trip:
        _append_return_pass(layers)
    address_rails = np.stack([np.full(n, -1), roots[:n, 0]], axis=1)
    set_qubits = np.append(roots[:n, 1:].ravel(), roots[n, -1])
    readout_tables = (roots.reshape(1, -1),) if round_trip else (*routers, leaves)
    width = roots.shape[1]

    @cache
    def modes() -> tuple[list, list, list]:
        # the modes as Python lists, made on the first decode
        return roots.tolist(), [level.tolist() for level in routers], leaves.tolist()

    def decode(word: int) -> tuple[int, int, bool]:
        root_modes, router_modes, leaf_modes = modes()
        addr = 0
        if round_trip:
            for k in range(n):
                addr = (addr << 1) | ((word >> root_modes[k][0]) & 1)
            read = root_modes
        else:
            j = 0
            for l in range(n):
                bit = (word >> router_modes[l][j][0]) & 1
                addr = (addr << 1) | bit
                j = 2 * j + bit
            read = [leaf_modes[addr]]
        value = (word >> read[-1][0]) & 1  # the bus or the leaf
        if width == 1:
            value ^= 1  # the copy landed on the bus marker 1
        delivered = all((word >> q) & 1 for m in read for q in m[1:])
        return addr, value, delivered

    return Schedule(
        architecture,
        "qutrit" if width == 2 else "qubit",
        n,
        tuple(reg.levels),
        tuple(reg.roles),
        tuple(layers),
        profile,
        cost,
        database,
        input_qubits=tuple(roots.T.ravel().tolist()),
        address_rails=address_rails,
        set_qubits=set_qubits,
        readout_tables=readout_tables,
        _decode_fn=decode,
    )


# ---------------------------------------------------------------------------
# the sequential-address pipeline shared by the bucket brigades and the walker


def _pipeline_registry(n: int, width: int, role: str | None = None):
    """Ports, bus, routers and rails of a pipelined tree of `width`-rail
    modes, in registry order: the n port modes (rail by rail), the bus
    mode, then per (level, node) its router and its transit rail, then
    the leaf rails. `routers[l]` and `rails[l]` hold level l's modes by
    node. `role` tags every qubit alike; by default ports are "address",
    routers carry the router roles and the rest is "bus".
    """
    reg = _Registry()
    ports = reg.modes(n, 0, *(role or "address",) * width)
    bus = reg.mode(0, *(role or "bus",) * width)
    router_roles = (role,) * width if role else _ROUTER_ROLES[:width]
    rail_roles = (role or "bus",) * width
    routers, rails = [], []
    for l in range(n):
        nodes = reg.nodes(1 << l, l, *router_roles, *rail_roles)
        routers.append(nodes[:, :width])
        rails.append(nodes[:, width:])
    rails.append(reg.nodes(1 << n, n, *rail_roles))
    return reg, ports, bus, routers, rails


def _pipeline_layers(
    n: int,
    dist: np.ndarray,
    cost: CycleCost,
    database: tuple[int, ...],
    ports: np.ndarray,
    rails: Sequence[np.ndarray],
    routers: Sequence[np.ndarray],
    inject_bus: np.ndarray,
    route: Callable[..., np.ndarray],
) -> list[Layer]:
    """Sequential-address pipeline: payload k enters two phases after k-1.

    Address bit k is moved from its port into the root rail at phase 2k,
    crosses one level per phase, and is parked in its router at phase
    3k+1; the bus enters (`inject_bus`) one extra phase behind the last
    address bit. Payloads therefore stay at least two levels apart and
    route layers of distinct payloads merge. The data copy onto the leaf
    value rails runs at phase 3n+2, once the bus reaches the leaves.
    `route(routers, src, dst, bit)` makes a level's routing gates, every
    node's at once; each level's left and right gates are made once, and
    every payload that crosses the level shares them.
    """
    routes: dict[tuple[int, int], np.ndarray] = {}

    def route_gates(level: int, bit: int) -> np.ndarray:
        gates = routes.get((level, bit))
        if gates is None:
            gates = routes[level, bit] = route(
                routers[level], rails[level], rails[level + 1][bit::2], bit
            )
        return gates

    layers = _LayerAccum(dist, cost)
    for tau in range(3 * n + 3):
        sub1, sub2 = [], []
        for k in range(n + 1):
            is_bus = k == n
            inject_at = 2 * k + 1 if is_bus else 2 * k
            if tau == inject_at:
                sub1.append(inject_bus if is_bus else _move(ports[k], rails[0]))
            elif not is_bus and tau == 3 * k + 1:
                sub1.append(_move(rails[k], routers[k]))
            else:
                j = tau - inject_at
                limit = n if is_bus else k
                if 1 <= j <= limit:
                    sub1.append(route_gates(j - 1, 0))
                    sub2.append(route_gates(j - 1, 1))
        if tau == 3 * n + 2:
            sub1.append(_data_copy(rails[n], database))
        layers.add(tau, *sub1)
        layers.add(tau, *sub2)
    return layers.seal()


# ---------------------------------------------------------------------------
# pipelined bucket-brigade builder (uniform and heterogeneous)


def _build_pipelined(
    architecture: str,
    n: int,
    router_kind: str,
    database: Sequence[int],
    profile: DistanceProfile,
    cost: CycleCost,
    round_trip: bool = False,
) -> Schedule:
    """The bucket brigade on the shared pipeline (`_pipeline_layers`).

    With round_trip the descent is mirrored after the copy: the bus is
    retrieved back to its port and the address bits are uncomputed out of
    the routers, so the query output lands in the ports and every error
    picked up in the tree rides back out with it.
    """
    database = validate_database(database, n)
    reg, ports, bus, routers, rails = _pipeline_registry(n, _router_width(router_kind))
    dist = _distance_table(reg.levels, profile)
    layers = _pipeline_layers(
        n, dist, cost, database, ports, rails, routers, _move(bus, rails[0]), _route
    )
    return _tree_schedule(
        architecture, n, reg, layers, profile, cost, database, round_trip,
        roots=np.vstack([ports, bus]),
        routers=routers,
        leaves=rails[n],
    )


MAX_DEPTH = 16

#: code distance of the uniform-bb tree and the walker when none is given
DEFAULT_UNIFORM_DISTANCE = 7


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_DEPTH:
        raise ValueError(f"tree depth must lie in [1, {MAX_DEPTH}], got {n}")


def _profile_for(
    n: int, profile: DistanceProfile | None, default: DistanceProfile
) -> DistanceProfile:
    """`profile`, or `default` when it is None, checked against depth n."""
    if profile is None:
        profile = default
    if profile.n != n:
        raise ValueError("profile depth does not match n")
    return profile


def build_uniform_bb(
    n: int,
    router_kind: str,
    database: Sequence[int],
    distance: int = DEFAULT_UNIFORM_DISTANCE,
    cost: CycleCost = CycleCost(),
    round_trip: bool = True,
) -> Schedule:
    """Pipelined bucket brigade with one code distance everywhere.

    The uniform tree runs the full four-pass query (addresses in, bus
    down, bus up, addresses out), matching its 4dc(1+4n) timing model.
    """
    _check_n(n)
    profile = DistanceProfile.uniform(n, distance)
    return _build_pipelined(
        "uniform-bb", n, router_kind, database, profile, cost, round_trip=round_trip
    )


def build_bb_hetero(
    n: int,
    router_kind: str,
    database: Sequence[int],
    profile: DistanceProfile | None = None,
    cost: CycleCost = CycleCost(),
    round_trip: bool = False,
) -> Schedule:
    """Pipelined bucket brigade with level-graded code distances.

    Descent-only by default: the heterogeneous tree delivers the bus at
    the addressed leaf and leaves the address set in the routers, which
    is what its per-level coherence windows describe.
    """
    _check_n(n)
    profile = _profile_for(n, profile, DistanceProfile.linear(n))
    return _build_pipelined(
        "bb-hetero", n, router_kind, database, profile, cost, round_trip=round_trip
    )


# ---------------------------------------------------------------------------
# fat-tree style block builder


def build_ft_hetero(
    n: int,
    router_kind: str,
    database: Sequence[int],
    profile: DistanceProfile | None = None,
    cost: CycleCost = CycleCost(),
    round_trip: bool = False,
) -> Schedule:
    """Block routing: the whole remaining address register descends together.

    At level l the head slot is set into the router, then the remaining
    n-l payload slots (address tail plus bus) are routed one slot at a
    time into the children, so the depth grows quadratically while any
    level-l router only ever waits on operations of its own distance or
    smaller once it is reached. With round_trip the descent is mirrored
    after the data copy so the whole register returns to the root.
    """
    _check_n(n)
    database = validate_database(database, n)
    width = _router_width(router_kind)
    profile = _profile_for(n, profile, DistanceProfile.linear(n))

    # a node is its router, then its slots (the address tail, then the
    # bus), split into modes of `width` rails; slots[l] is level l's
    # (node, slot, rail) array
    reg = _Registry()
    address, bus = ("address",) * width, ("bus",) * width
    routers, slots = [], []
    for l in range(n):
        node_roles = _ROUTER_ROLES[:width] + address * (n - l) + bus
        nodes = reg.nodes(1 << l, l, *node_roles)
        routers.append(nodes[:, :width])
        slots.append(nodes[:, width:].reshape(1 << l, n - l + 1, width))
    slots.append(reg.nodes(1 << n, n, *bus).reshape(1 << n, 1, width))

    layers = _LayerAccum(_distance_table(reg.levels, profile), cost)
    phase = 0
    for l in range(n):
        layers.add(phase, _move(slots[l][:, 0], routers[l]))
        phase += 1
        for s in range(1, n - l + 1):
            for bit in (0, 1):
                child = slots[l + 1][bit::2, s - 1]
                layers.add(phase, _route(routers[l], slots[l][:, s], child, bit))
            phase += 1
    layers.add(phase, _data_copy(slots[n][:, 0], database))

    return _tree_schedule(
        "ft-hetero", n, reg, layers.seal(), profile, cost, database, round_trip,
        roots=slots[0][0],
        routers=routers,
        leaves=slots[n][:, 0],
    )


# ---------------------------------------------------------------------------
# quantum-walker builder


def _s_hop(parent_b, parent_r, child_b, child_r) -> np.ndarray:
    """The gate table of `walker_s_hop`."""
    return _gate_rows(_T.CCSWAP, parent_b, child_r, c0=child_b, c1=parent_r, p0=0, p1=0)


def walker_s_hop(parent_b: int, parent_r: int, child_b: int, child_r: int) -> Gate:
    """The two-site walker hop on dual-rail modes (|phi>=00, |B>=10, |R>=01).

    Swaps |phi, B> <-> |R, phi> (child, parent) and fixes every other
    encoded basis state; it is its own inverse.
    """
    return _table_gates(_s_hop(parent_b, parent_r, child_b, child_r))[0]


def _steer_route(steer: np.ndarray, src: np.ndarray, dst: np.ndarray, bit: int) -> np.ndarray:
    """Each node's walker hop into child `bit`, rail by rail, fired by the
    node's steer cell's B rail (bit 0, left) or R rail (bit 1, right)."""
    fire = np.repeat(steer[:, bit], src.shape[-1])  # each rail's steer rail
    return _gate_rows(_T.CSWAP, src, dst, c0=fire, p0=1)


def build_walker(
    n: int,
    database: Sequence[int],
    profile: DistanceProfile | None = None,
    cost: CycleCost = CycleCost(),
) -> Schedule:
    """Walker QRAM: passive tree nodes, dual-rail walker modes hopping down.

    Every spatio-temporal mode is one two-qubit dual-rail cell (B, R).
    Address walkers park in a node's steer cell (one-hot: B = 0, R = 1)
    and steer later walkers by rail-controlled hops; the bus walker enters
    through the hop operator and is deposited at the addressed leaf, where
    the classical copy writes the data bit onto its empty rail. The
    timing is the bucket brigade's pipeline (`_pipeline_layers`), with
    steer cells in place of routers.
    """
    _check_n(n)
    database = validate_database(database, n)
    profile = _profile_for(n, profile, DistanceProfile.uniform(n, DEFAULT_UNIFORM_DISTANCE))

    reg, ports, bus, steer, rails = _pipeline_registry(n, 2, role="walker")
    dist = _distance_table(reg.levels, profile)
    hop = _s_hop(*bus, *rails[0][0])
    layers = _pipeline_layers(n, dist, cost, database, ports, rails, steer, hop, _steer_route)

    @cache
    def cells() -> tuple[list, list]:
        # the steer and leaf cells as Python lists, made on the first decode
        return [level.tolist() for level in steer], rails[n].tolist()

    def decode(word: int) -> tuple[int, int, bool]:
        steer_cells, leaf_cells = cells()
        addr = 0
        j = 0
        for l in range(n):
            bit = (word >> steer_cells[l][j][1]) & 1
            addr = (addr << 1) | bit
            j = 2 * j + bit
        b, r = leaf_cells[addr]
        return addr, (word >> b) & 1, ((word >> r) & 1) == 1

    return Schedule(
        "walker",
        "qutrit",
        n,
        tuple(reg.levels),
        tuple(reg.roles),
        tuple(layers),
        profile,
        cost,
        database,
        input_qubits=tuple(ports.T.ravel().tolist() + bus.tolist()),
        address_rails=ports,
        set_qubits=bus[:1],
        readout_tables=(*steer, rails[n]),
        _decode_fn=decode,
    )


def build_schedule(
    architecture: str,
    n: int,
    router_kind: str,
    database: Sequence[int],
    profile: DistanceProfile | None = None,
    cost: CycleCost = CycleCost(),
    round_trip: bool | None = None,
) -> Schedule:
    """Dispatch to the architecture's builder with a shared signature.

    round_trip=None keeps the builder's default protocol (full query for
    the uniform tree, descent-only for the rest); the walker has no
    return pass and ignores the flag.
    """
    protocol = {} if round_trip is None else {"round_trip": round_trip}
    if architecture == "uniform-bb":
        if profile is None:
            return build_uniform_bb(n, router_kind, database, cost=cost, **protocol)
        if profile.kind != "uniform":
            raise ValueError("uniform-bb requires a uniform profile")
        return build_uniform_bb(
            n, router_kind, database, distance=profile.uniform_d, cost=cost, **protocol
        )
    if architecture == "ft-hetero":
        return build_ft_hetero(n, router_kind, database, profile=profile, cost=cost, **protocol)
    if architecture == "bb-hetero":
        return build_bb_hetero(n, router_kind, database, profile=profile, cost=cost, **protocol)
    if architecture == "walker":
        return build_walker(n, database, profile=profile, cost=cost)
    raise ValueError(f"unknown architecture {architecture!r}")
