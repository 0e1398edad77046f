"""Layered query-circuit builders for the four QRAM architectures.

Every builder produces a Schedule: an ordered list of gate layers over a
fixed qubit registry, each layer tagged with its code-cycle cost (the most
expensive gate in the layer sets the cost: c*d cycles for a controlled
swap at distance d, s*d for a plain swap or X). Registry qubits carry a
tree level (root = 0, leaves = n) and a role tag.

Conventions shared by all architectures:

* Address integers are read big-endian along the tree: the bit routed at
  level l is (address >> (n-1-l)) & 1, and 0 routes to the left child
  (node 2j), 1 to the right (node 2j+1), so the bus lands on leaf index
  == address.
* Qutrit routers use two qubits (active bit a, direction bit r): wait
  state |W> = (a=0), |0> = (a=1, r=0), |1> = (a=1, r=1). Payloads in
  transit are two-qubit modes as well (presence bit, value bit), so
  setting a router is a pair of plain swaps and only routers that really
  received an address bit leave the wait state.
* Qubit routers drop the active bit; transit modes are single qubits and
  the bus carries a marker value of 1 so delivery is observable.
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
from typing import Callable, Iterable, Sequence

from .noise import CycleCost, DistanceProfile


class GateKind(enum.Enum):
    SWAP = "SWAP"
    CSWAP = "CSWAP"
    CCSWAP = "CCSWAP"
    X = "X"
    CLASSICAL_CX = "CLASSICALCX"


@dataclass(frozen=True)
class Gate:
    """One permutation gate: plain/controlled swap, X, or classical data copy."""

    kind: GateKind
    operands: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    data_bit: int = 0

    @classmethod
    def swap(cls, a: int, b: int) -> "Gate":
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
        qubits = {q for q, pol in self.controls if pol == 0 or pol == 1}
        qubits.update(self.operands)
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


@dataclass(frozen=True)
class Layer:
    """Parallel gates plus their timing and noise accounting.

    code_cycles prices the layer for coherence-time bookkeeping (per-gate
    step cost times code distance, maximized over the layer). noise_rounds
    is how many error-sampling rounds the layer inflicts: the largest code
    distance among its gates, with no step-cost factor. phase groups the
    sub-layers of one parallel routing step (a router's left and right
    polarity moves are one operation); noise is applied once per phase.
    """

    gates: tuple[Gate, ...]
    code_cycles: int
    noise_rounds: int = 1
    phase: int = 0

    def touched(self) -> set[int]:
        out: set[int] = set()
        for g in self.gates:
            out |= g.support()
        return out


def _check_layer_parallel(gates: Sequence[Gate]) -> None:
    """Operands pairwise disjoint; control sets disjoint or identical.

    Identical control sets mark the bit-moves of one controlled
    qutrit-mode swap, which execute as a single operation. The passing
    path builds one flat list of operands and one of the qubits of the
    distinct control tuples; only a layer that fails it is checked
    condition by condition, to name its fault.
    """
    ops = [q for g in gates for q in g.operands]
    ctrl = [q for controls in {g.controls for g in gates} for q, _ in controls]
    seen = set(ops)
    if len(seen) == len(ops) and len(set(ctrl)) == len(ctrl) and seen.isdisjoint(ctrl):
        return
    _layer_fault(gates)


def _layer_fault(gates: Sequence[Gate]) -> None:
    """Raise the first condition of `_check_layer_parallel` that `gates`
    break, if any."""
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
    def __init__(self):
        self.levels: list[int] = []
        self.roles: list[str] = []

    def add(self, level: int, role: str) -> int:
        self.levels.append(level)
        self.roles.append(role)
        return len(self.levels) - 1

    @property
    def count(self) -> int:
        return len(self.levels)


def validate_database(bits: Sequence[int], n: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in bits)
    if len(bits) != 1 << n:
        raise ValueError(f"database must hold exactly 2^{n} = {1 << n} bits")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("database entries must be 0 or 1")
    return bits


@dataclass
class Schedule:
    """A built query circuit: registry, layers, and decode/readout helpers."""

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
    _initial_word_fn: Callable[[int], int] = field(repr=False, default=None)
    _mask_fn: Callable[[int], tuple[int, ...]] = field(repr=False, default=None)
    _decode_fn: Callable[[int], tuple[int, int, bool]] = field(repr=False, default=None)

    def __post_init__(self):
        gates = [g for layer in self.layers for g in layer.gates]
        qubits = [q for g in gates for q in g.operands]
        qubits += [q for g in gates for q, _ in g.controls]
        if qubits and (min(qubits) < 0 or max(qubits) >= self.qubit_count):
            # name the first offending qubit, gate by gate
            for g in gates:
                for q in g.support():
                    if not 0 <= q < self.qubit_count:
                        raise ValueError(f"gate touches unregistered qubit {q}")
        self._ideal_cache: dict[int, int] = {}

    def first_active_layer(self) -> tuple[int, ...]:
        """Layer index at which each qubit's patch comes alive.

        Input qubits hold the query register and live from layer 0; any
        other patch is allocated by the first gate that touches it and
        only accumulates noise from then on. Untouched non-input qubits
        report len(layers) (never active).
        """
        first = [len(self.layers)] * self.qubit_count
        for q in self.input_qubits:
            first[q] = 0
        for i, layer in enumerate(self.layers):
            for g in layer.gates:
                for q in g.operands:
                    if i < first[q]:
                        first[q] = i
                for q, _ in g.controls:
                    if i < first[q]:
                        first[q] = i
        return tuple(first)

    @property
    def qubit_count(self) -> int:
        return len(self.levels)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def total_cycles(self) -> int:
        return sum(layer.code_cycles for layer in self.layers)

    # -- initial states ---------------------------------------------------

    def initial_word(self, address: int) -> int:
        if not 0 <= address < (1 << self.n):
            raise ValueError(f"address {address} outside [0, 2^{self.n})")
        if self._initial_word_fn is None:
            raise ValueError("schedule has no architecture input map")
        return self._initial_word_fn(address)

    # -- readout ----------------------------------------------------------

    def output_mask(self, address: int) -> tuple[int, ...]:
        """Qubits that carry the query output for one address branch."""
        if self._mask_fn is None:
            raise ValueError("schedule has no output mask")
        return self._mask_fn(address)

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
    watched = {
        q
        for q in range(schedule.qubit_count)
        if schedule.levels[q] == level and schedule.roles[q] in ROUTER_ROLES
    }
    if not watched:
        watched = {q for q in range(schedule.qubit_count) if schedule.levels[q] == level}
    start = None
    for i, layer in enumerate(schedule.layers):
        if layer.touched() & watched:
            start = i
            break
    if start is None:
        return 0
    return sum(layer.code_cycles for layer in schedule.layers[start:])


def address_bit(address: int, level: int, n: int) -> int:
    """The address bit consumed by routers at `level` (big-endian path)."""
    return (address >> (n - 1 - level)) & 1


def path_nodes(address: int, n: int) -> list[int]:
    """Node index within each level along the routing path of `address`:
    at level l, the address's top l bits."""
    return [address >> (n - l) for l in range(n)]


# ---------------------------------------------------------------------------
# schedule assembly helpers


def _distance_table(levels: Sequence[int], profile: DistanceProfile) -> list[int]:
    """The profile's code distance at each registry qubit's level."""
    by_level = profile.distances()
    return [by_level[level] for level in levels]


class _LayerAccum:
    """Collects gates for one layer and prices it when sealed.

    `distance` is the builder's per-qubit distance table
    (`_distance_table`, made once its registry is complete). Sealing
    prices each gate once: its distance d is the largest over its operands
    and controls. The layer's noise_rounds is the largest d, and its
    code_cycles the largest c*d over controlled swaps and s*d over the
    other gates.
    """

    def __init__(self, distance: list[int], cost: CycleCost):
        self.gates: list[Gate] = []
        self._distance = distance
        self._cost = cost

    def add(self, *gates: Gate) -> None:
        self.gates.extend(gates)

    def seal(self, phase: int) -> Layer | None:
        if not self.gates:
            return None
        _check_layer_parallel(self.gates)
        swaps: list[Gate] = []
        plain: list[Gate] = []
        for g in self.gates:
            (swaps if g.kind is GateKind.CSWAP or g.kind is GateKind.CCSWAP else plain).append(g)
        d_c, d_s = self._max_distance(swaps), self._max_distance(plain)
        cycles = max(self._cost.c * d_c, self._cost.s * d_s)
        return Layer(tuple(self.gates), cycles, max(d_c, d_s), phase)

    def _max_distance(self, gates: list[Gate]) -> int:
        qubits = [q for g in gates for q in g.operands]
        qubits += [q for g in gates for q, _ in g.controls]
        return max(map(self._distance.__getitem__, qubits), default=0)


def _seal_phases(accums: Iterable[_LayerAccum], phase: int) -> list[Layer]:
    out = []
    for acc in accums:
        layer = acc.seal(phase)
        if layer is not None:
            out.append(layer)
    return out


# ---------------------------------------------------------------------------
# router-tree readout shared by the pipelined and block builders


def _append_return_pass(layers: list[Layer]) -> None:
    """Mirror the descent (every layer but the data copy) after the copy,
    one phase per layer from the next free phase on."""
    descent = [l for l in layers if not any(g.kind is GateKind.CLASSICAL_CX for g in l.gates)]
    base = layers[-1].phase + 1
    layers.extend(
        Layer(src.gates, src.code_cycles, src.noise_rounds, base + i)
        for i, src in enumerate(reversed(descent))
    )


def _tree_schedule(
    architecture: str,
    router_kind: str,
    n: int,
    reg: _Registry,
    layers: list[Layer],
    profile: DistanceProfile,
    cost: CycleCost,
    database: tuple[int, ...],
    round_trip: bool,
    *,
    root_v: Sequence[int],
    root_p: Sequence[int] | None,
    r_bit: dict[tuple[int, int], int],
    a_bit: dict[tuple[int, int], int],
    leaf_v: Sequence[int],
    leaf_p: Sequence[int] | None,
) -> Schedule:
    """A router tree's Schedule with its input map, output mask and decoder.

    `root_v`/`root_p` are the value/presence qubits of the root slots: the
    n address slots, then the bus. `r_bit`/`a_bit` are the direction and
    active bits of router (level, node), and `leaf_v`/`leaf_p` the rails
    of each leaf. Presence and active bits exist for qutrit routers only
    (`root_p`, `leaf_p` None and `a_bit` empty otherwise); a qubit-router
    bus carries the marker 1, so its data reads inverted. With round_trip
    the descent is mirrored after the copy and the output is read back at
    the root slots; without it, at the routers on the path and the leaf.
    """
    qutrit = root_p is not None
    if round_trip:
        _append_return_pass(layers)

    def modes(values, presences, keys):
        out = []
        for k in keys:
            out.append(values[k])
            if qutrit:
                out.append(presences[k])
        return out

    def initial_word(address: int) -> int:
        word = 0
        for k in range(n):
            word |= address_bit(address, k, n) << root_v[k]
        for q in root_p if qutrit else [root_v[n]]:
            word |= 1 << q
        return word

    def mask(address: int) -> tuple[int, ...]:
        if round_trip:
            return tuple(modes(root_v, root_p, range(n + 1)))
        path = list(enumerate(path_nodes(address, n)))
        return tuple(modes(r_bit, a_bit, path) + modes(leaf_v, leaf_p, [address]))

    def decode(word: int) -> tuple[int, int, bool]:
        addr = 0
        if round_trip:
            for k in range(n):
                addr = (addr << 1) | ((word >> root_v[k]) & 1)
            value = (word >> root_v[n]) & 1
            delivered = not qutrit or all((word >> q) & 1 for q in root_p)
        else:
            j = 0
            for l in range(n):
                bit = (word >> r_bit[l, j]) & 1
                addr = (addr << 1) | bit
                j = 2 * j + bit
            value = (word >> leaf_v[addr]) & 1
            delivered = not qutrit or ((word >> leaf_p[addr]) & 1) == 1
        if not qutrit:
            value ^= 1  # the copy landed on the bus marker 1
        return addr, value, delivered

    return Schedule(
        architecture,
        router_kind,
        n,
        tuple(reg.levels),
        tuple(reg.roles),
        tuple(layers),
        profile,
        cost,
        database,
        input_qubits=tuple(list(root_v) + (list(root_p) if qutrit else [])),
        _initial_word_fn=initial_word,
        _mask_fn=mask,
        _decode_fn=decode,
    )


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
    """Sequential-address pipeline: payload k enters two phases after k-1.

    Address bit k is injected at phase 2k, crosses one level per phase,
    and is set into its router at phase 3k+1; the bus follows one extra
    phase behind the last address bit. Payloads therefore stay at least
    two levels apart and route layers of distinct payloads merge. The
    data copy runs once the bus reaches the leaves.

    With round_trip the descent is mirrored after the copy: the bus is
    retrieved back to its port and the address bits are uncomputed out of
    the routers, so the query output lands in the ports and every error
    picked up in the tree rides back out with it.
    """
    database = validate_database(database, n)
    qutrit = _check_router_kind(router_kind)
    reg = _Registry()

    port_v = [reg.add(0, "address") for _ in range(n)]
    port_p = [reg.add(0, "address") for _ in range(n)] if qutrit else None
    bus_v = reg.add(0, "bus")
    bus_p = reg.add(0, "bus") if qutrit else None

    r_bit: dict[tuple[int, int], int] = {}
    a_bit: dict[tuple[int, int], int] = {}
    rail_v: dict[tuple[int, int], int] = {}
    rail_p: dict[tuple[int, int], int] = {}
    for l in range(n):
        for j in range(1 << l):
            r_bit[l, j] = reg.add(l, "router_direction")
            if qutrit:
                a_bit[l, j] = reg.add(l, "router_active")
            rail_v[l, j] = reg.add(l, "bus")
            if qutrit:
                rail_p[l, j] = reg.add(l, "bus")
    for j in range(1 << n):
        rail_v[n, j] = reg.add(n, "bus")
        if qutrit:
            rail_p[n, j] = reg.add(n, "bus")

    dist = _distance_table(reg.levels, profile)
    routes: dict[tuple[int, bool], list[Gate]] = {}

    def route_gates(level: int, right: bool) -> list[Gate]:
        """One level's routing swaps to the left or right children; every
        payload that crosses the level shares them."""
        gates = routes.get((level, right))
        if gates is not None:
            return gates
        gates = routes[level, right] = []
        for j in range(1 << level):
            child = 2 * j + (1 if right else 0)
            if qutrit:
                controls = [(a_bit[level, j], 1), (r_bit[level, j], 1 if right else 0)]
                gates.append(Gate.cswap(controls, rail_v[level, j], rail_v[level + 1, child]))
                gates.append(Gate.cswap(controls, rail_p[level, j], rail_p[level + 1, child]))
            else:
                controls = [(r_bit[level, j], 1 if right else 0)]
                gates.append(Gate.cswap(controls, rail_v[level, j], rail_v[level + 1, child]))
        return gates

    layers: list[Layer] = []
    for tau in range(3 * n + 3):
        sub1 = _LayerAccum(dist, cost)
        sub2 = _LayerAccum(dist, cost)
        for k in range(n + 1):
            is_bus = k == n
            inject_at = 2 * k + 1 if is_bus else 2 * k
            if tau == inject_at:
                src_v = bus_v if is_bus else port_v[k]
                sub1.add(Gate.swap(src_v, rail_v[0, 0]))
                if qutrit:
                    src_p = bus_p if is_bus else port_p[k]
                    sub1.add(Gate.swap(src_p, rail_p[0, 0]))
            elif not is_bus and tau == 3 * k + 1:
                for j in range(1 << k):
                    sub1.add(Gate.swap(rail_v[k, j], r_bit[k, j]))
                    if qutrit:
                        sub1.add(Gate.swap(rail_p[k, j], a_bit[k, j]))
            else:
                j = tau - inject_at
                limit = n if is_bus else k
                if 1 <= j <= limit:
                    sub1.add(*route_gates(j - 1, right=False))
                    sub2.add(*route_gates(j - 1, right=True))
        if tau == 3 * n + 2:
            for j in range(1 << n):
                sub1.add(Gate.classical_cx(database[j], rail_v[n, j]))
        layers.extend(_seal_phases([sub1, sub2], tau))

    return _tree_schedule(
        architecture, router_kind, n, reg, layers, profile, cost, database, round_trip,
        root_v=port_v + [bus_v],
        root_p=port_p + [bus_p] if qutrit else None,
        r_bit=r_bit,
        a_bit=a_bit,
        leaf_v=[rail_v[n, j] for j in range(1 << n)],
        leaf_p=[rail_p[n, j] for j in range(1 << n)] if qutrit else None,
    )


def _check_router_kind(router_kind: str) -> bool:
    if router_kind not in ("qutrit", "qubit"):
        raise ValueError(f"router_kind must be 'qutrit' or 'qubit', got {router_kind!r}")
    return router_kind == "qutrit"


MAX_DEPTH = 16


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_DEPTH:
        raise ValueError(f"tree depth must lie in [1, {MAX_DEPTH}], got {n}")


def build_uniform_bb(
    n: int,
    router_kind: str,
    database: Sequence[int],
    distance: int = 7,
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
    if profile is None:
        profile = DistanceProfile.linear(n)
    if profile.n != n:
        raise ValueError("profile depth does not match n")
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
    qutrit = _check_router_kind(router_kind)
    if profile is None:
        profile = DistanceProfile.linear(n)
    if profile.n != n:
        raise ValueError("profile depth does not match n")

    reg = _Registry()
    r_bit: dict[tuple[int, int], int] = {}
    a_bit: dict[tuple[int, int], int] = {}
    slot_v: dict[tuple[int, int, int], int] = {}
    slot_p: dict[tuple[int, int, int], int] = {}
    for l in range(n):
        width = n - l + 1
        for j in range(1 << l):
            r_bit[l, j] = reg.add(l, "router_direction")
            if qutrit:
                a_bit[l, j] = reg.add(l, "router_active")
            for s in range(width):
                role = "bus" if s == width - 1 else "address"
                slot_v[l, j, s] = reg.add(l, role)
                if qutrit:
                    slot_p[l, j, s] = reg.add(l, role)
    for j in range(1 << n):
        slot_v[n, j, 0] = reg.add(n, "bus")
        if qutrit:
            slot_p[n, j, 0] = reg.add(n, "bus")

    dist = _distance_table(reg.levels, profile)
    layers: list[Layer] = []
    phase = 0
    for l in range(n):
        park = _LayerAccum(dist, cost)
        for j in range(1 << l):
            park.add(Gate.swap(slot_v[l, j, 0], r_bit[l, j]))
            if qutrit:
                park.add(Gate.swap(slot_p[l, j, 0], a_bit[l, j]))
        layers.extend(_seal_phases([park], phase))
        phase += 1
        for s in range(1, n - l + 1):
            for right in (False, True):
                acc = _LayerAccum(dist, cost)
                for j in range(1 << l):
                    child = 2 * j + (1 if right else 0)
                    if qutrit:
                        controls = [(a_bit[l, j], 1), (r_bit[l, j], 1 if right else 0)]
                        acc.add(Gate.cswap(controls, slot_v[l, j, s], slot_v[l + 1, child, s - 1]))
                        acc.add(Gate.cswap(controls, slot_p[l, j, s], slot_p[l + 1, child, s - 1]))
                    else:
                        controls = [(r_bit[l, j], 1 if right else 0)]
                        acc.add(Gate.cswap(controls, slot_v[l, j, s], slot_v[l + 1, child, s - 1]))
                layers.extend(_seal_phases([acc], phase))
            phase += 1
    copy = _LayerAccum(dist, cost)
    for j in range(1 << n):
        copy.add(Gate.classical_cx(database[j], slot_v[n, j, 0]))
    layers.extend(_seal_phases([copy], phase))

    return _tree_schedule(
        "ft-hetero", router_kind, n, reg, layers, profile, cost, database, round_trip,
        root_v=[slot_v[0, 0, s] for s in range(n + 1)],
        root_p=[slot_p[0, 0, s] for s in range(n + 1)] if qutrit else None,
        r_bit=r_bit,
        a_bit=a_bit,
        leaf_v=[slot_v[n, j, 0] for j in range(1 << n)],
        leaf_p=[slot_p[n, j, 0] for j in range(1 << n)] if qutrit else None,
    )


# ---------------------------------------------------------------------------
# quantum-walker builder


def walker_s_hop(parent_b: int, parent_r: int, child_b: int, child_r: int) -> Gate:
    """The two-site walker hop on dual-rail modes (|phi>=00, |B>=10, |R>=01).

    Swaps |phi, B> <-> |R, phi> (child, parent) and fixes every other
    encoded basis state; it is its own inverse.
    """
    return Gate.cswap([(child_b, 0), (parent_r, 0)], parent_b, child_r)


def build_walker(
    n: int,
    database: Sequence[int],
    profile: DistanceProfile | None = None,
    cost: CycleCost = CycleCost(),
) -> Schedule:
    """Walker QRAM: passive tree nodes, dual-rail walker modes hopping down.

    Every spatio-temporal mode is one two-qubit dual-rail cell. Address
    walkers park in a node's steer cell (one-hot: B = 0, R = 1) and steer
    later walkers by rail-controlled hops; the bus walker enters through
    the hop operator and is deposited at the addressed leaf, where the
    classical copy writes the data bit onto its empty rail.
    """
    _check_n(n)
    database = validate_database(database, n)
    if profile is None:
        profile = DistanceProfile.uniform(n, 7)
    if profile.n != n:
        raise ValueError("profile depth does not match n")

    reg = _Registry()
    port_b = [reg.add(0, "walker") for _ in range(n)]
    port_r = [reg.add(0, "walker") for _ in range(n)]
    bus_b = reg.add(0, "walker")
    bus_r = reg.add(0, "walker")
    steer_b: dict[tuple[int, int], int] = {}
    steer_r: dict[tuple[int, int], int] = {}
    rail_b: dict[tuple[int, int], int] = {}
    rail_r: dict[tuple[int, int], int] = {}
    for l in range(n):
        for j in range(1 << l):
            steer_b[l, j] = reg.add(l, "walker")
            steer_r[l, j] = reg.add(l, "walker")
            rail_b[l, j] = reg.add(l, "walker")
            rail_r[l, j] = reg.add(l, "walker")
    for j in range(1 << n):
        rail_b[n, j] = reg.add(n, "walker")
        rail_r[n, j] = reg.add(n, "walker")

    dist = _distance_table(reg.levels, profile)
    layers: list[Layer] = []
    for tau in range(3 * n + 3):
        sub1 = _LayerAccum(dist, cost)
        sub2 = _LayerAccum(dist, cost)
        for k in range(n + 1):
            is_bus = k == n
            inject_at = 2 * k + 1 if is_bus else 2 * k
            if tau == inject_at:
                if is_bus:
                    sub1.add(walker_s_hop(bus_b, bus_r, rail_b[0, 0], rail_r[0, 0]))
                else:
                    sub1.add(Gate.swap(port_b[k], rail_b[0, 0]))
                    sub1.add(Gate.swap(port_r[k], rail_r[0, 0]))
            elif not is_bus and tau == 3 * k + 1:
                for j in range(1 << k):
                    sub1.add(Gate.swap(rail_b[k, j], steer_b[k, j]))
                    sub1.add(Gate.swap(rail_r[k, j], steer_r[k, j]))
            else:
                j = tau - inject_at
                limit = n if is_bus else k
                if 1 <= j <= limit:
                    l = j - 1
                    for node in range(1 << l):
                        left, right = 2 * node, 2 * node + 1
                        ctl_l = [(steer_b[l, node], 1)]
                        sub1.add(Gate.cswap(ctl_l, rail_b[l, node], rail_b[l + 1, left]))
                        sub1.add(Gate.cswap(ctl_l, rail_r[l, node], rail_r[l + 1, left]))
                        ctl_r = [(steer_r[l, node], 1)]
                        sub2.add(Gate.cswap(ctl_r, rail_b[l, node], rail_b[l + 1, right]))
                        sub2.add(Gate.cswap(ctl_r, rail_r[l, node], rail_r[l + 1, right]))
        if tau == 3 * n + 2:
            for j in range(1 << n):
                sub1.add(Gate.classical_cx(database[j], rail_b[n, j]))
        layers.extend(_seal_phases([sub1, sub2], tau))

    def initial_word(address: int) -> int:
        word = 1 << bus_b
        for k in range(n):
            bit = address_bit(address, k, n)
            word |= 1 << (port_r[k] if bit else port_b[k])
        return word

    def mask(address: int) -> tuple[int, ...]:
        bits = []
        for l, j in enumerate(path_nodes(address, n)):
            bits.extend((steer_b[l, j], steer_r[l, j]))
        bits.extend((rail_b[n, address], rail_r[n, address]))
        return tuple(bits)

    def decode(word: int) -> tuple[int, int, bool]:
        addr = 0
        j = 0
        for l in range(n):
            bit = (word >> steer_r[l, j]) & 1
            addr = (addr << 1) | bit
            j = 2 * j + bit
        delivered = ((word >> rail_r[n, addr]) & 1) == 1
        data = (word >> rail_b[n, addr]) & 1
        return addr, data, delivered

    inputs = list(port_b) + list(port_r) + [bus_b, bus_r]
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
        input_qubits=tuple(inputs),
        _initial_word_fn=initial_word,
        _mask_fn=mask,
        _decode_fn=decode,
    )


BUILDERS = {
    "uniform-bb": build_uniform_bb,
    "ft-hetero": build_ft_hetero,
    "bb-hetero": build_bb_hetero,
    "walker": build_walker,
}


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

    round_trip=None keeps each architecture's default protocol (full
    query for the uniform tree, descent-only for the rest); the walker
    has no return pass and ignores the flag.
    """
    if architecture == "uniform-bb":
        rt = True if round_trip is None else round_trip
        if profile is None:
            return build_uniform_bb(n, router_kind, database, cost=cost, round_trip=rt)
        if profile.kind != "uniform":
            raise ValueError("uniform-bb requires a uniform profile")
        return build_uniform_bb(
            n, router_kind, database, distance=profile.uniform_d, cost=cost, round_trip=rt
        )
    rt = False if round_trip is None else round_trip
    if architecture == "ft-hetero":
        return build_ft_hetero(n, router_kind, database, profile=profile, cost=cost, round_trip=rt)
    if architecture == "bb-hetero":
        return build_bb_hetero(n, router_kind, database, profile=profile, cost=cost, round_trip=rt)
    if architecture == "walker":
        return build_walker(n, database, profile=profile, cost=cost)
    raise ValueError(f"unknown architecture {architecture!r}")
