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
* A mode is a tuple of qubits, one per rail. A transit mode is (value,
  presence) and a router (direction, active) under qutrit routers, whose
  wait state |W> is active = 0 and |0>, |1> are active = 1 with that
  direction. Qubit routers drop the second rail: both modes are
  (value,) / (direction,), and the bus carries a marker value of 1 so
  delivery is observable. The router kind is only the modes' width:
  parking a payload is `_move(rail, router)`, plain swaps rail by rail,
  and routing it is `_route`, controlled swaps rail by rail, so only
  routers that really received an address bit leave the wait state.
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
    """Qubit levels and roles in allocation order; a qubit's index is its
    position. A mode is a tuple of qubits, one per rail."""

    def __init__(self):
        self.levels: list[int] = []
        self.roles: list[str] = []

    def _take(self, level: int, roles: tuple[str, ...]) -> range:
        """One qubit per role, in order."""
        first = len(self.roles)
        self.roles += roles
        self.levels += [level] * len(roles)
        return range(first, len(self.roles))

    def mode(self, level: int, *roles: str) -> tuple[int, ...]:
        """One mode with a rail per role."""
        return tuple(self._take(level, roles))

    def modes(self, count: int, level: int, *roles: str) -> list[tuple[int, ...]]:
        """`count` modes allocated rail by rail: every mode's first rail,
        then every mode's second."""
        return list(zip(*[self._take(level, (role,) * count) for role in roles]))

    def nodes(self, count: int, level: int, *roles: str) -> list[tuple[int, ...]]:
        """`count` modes, one per tree node, allocated mode by mode."""
        qubits = self._take(level, roles * count)
        width = len(roles)
        return [tuple(qubits[i:i + width]) for i in range(0, len(qubits), width)]


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
        swaps = [g for g in self.gates if g.controls]  # only controlled swaps have controls
        plain = [g for g in self.gates if not g.controls]
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


def _move(src: Sequence[int], dst: Sequence[int]) -> list[Gate]:
    """Plain swaps of two modes, rail by rail."""
    return [Gate.swap(a, b) for a, b in zip(src, dst)]


def _route(
    router: Sequence[int], src: Sequence[int], dst: Sequence[int], bit: int
) -> list[Gate]:
    """Controlled swaps of a transit mode into child `bit` (0 left, 1
    right), rail by rail, fired by the router's active rail (if any) at 1
    and its direction at `bit`."""
    controls = [(q, 1) for q in router[1:]]
    controls.append((router[0], bit))
    return [Gate.cswap(controls, a, b) for a, b in zip(src, dst)]


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
    roots: Sequence[tuple[int, ...]],
    routers: dict[tuple[int, int], tuple[int, ...]],
    leaves: Sequence[tuple[int, ...]],
) -> Schedule:
    """A router tree's Schedule with its input map, output mask and decoder.

    `roots` are the modes of the root slots: the n address slots, then the
    bus. `routers` maps (level, node) to a router mode and `leaves` holds
    each leaf's mode. Transit modes are (value, presence) and routers
    (direction, active) under qutrit routers; under qubit routers both are
    one rail, and the bus carries the marker 1, so its data reads
    inverted. With round_trip the descent is mirrored after the copy and
    the output is read back at the root slots; without it, at the routers
    on the path and the leaf.
    """
    qutrit = router_kind == "qutrit"
    if round_trip:
        _append_return_pass(layers)

    def initial_word(address: int) -> int:
        word = 0
        for k in range(n):
            word |= address_bit(address, k, n) << roots[k][0]
        for q in [m[1] for m in roots] if qutrit else [roots[n][0]]:
            word |= 1 << q
        return word

    def mask(address: int) -> tuple[int, ...]:
        if round_trip:
            return tuple(q for m in roots for q in m)
        path = [routers[key] for key in enumerate(path_nodes(address, n))]
        return tuple(q for m in path + [leaves[address]] for q in m)

    def decode(word: int) -> tuple[int, int, bool]:
        addr = 0
        if round_trip:
            for k in range(n):
                addr = (addr << 1) | ((word >> roots[k][0]) & 1)
            value = (word >> roots[n][0]) & 1
            delivered = not qutrit or all((word >> m[1]) & 1 for m in roots)
        else:
            j = 0
            for l in range(n):
                bit = (word >> routers[l, j][0]) & 1
                addr = (addr << 1) | bit
                j = 2 * j + bit
            value = (word >> leaves[addr][0]) & 1
            delivered = not qutrit or ((word >> leaves[addr][1]) & 1) == 1
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
        input_qubits=tuple(q for rail in zip(*roots) for q in rail),
        _initial_word_fn=initial_word,
        _mask_fn=mask,
        _decode_fn=decode,
    )


# ---------------------------------------------------------------------------
# the sequential-address pipeline shared by the bucket brigades and the walker


def _pipeline_registry(n: int, width: int, role: str | None = None):
    """Ports, bus, routers and rails of a pipelined tree of `width`-rail
    modes, in registry order: the n port modes (rail by rail), the bus
    mode, then per (level, node) its router and its transit rail, then
    the leaf rails. `role` tags every qubit alike; by default ports are
    "address", routers carry the router roles and the rest is "bus".
    """
    reg = _Registry()
    ports = reg.modes(n, 0, *(role or "address",) * width)
    bus = reg.mode(0, *(role or "bus",) * width)
    router_roles = (role,) * width if role else _ROUTER_ROLES[:width]
    rail_roles = (role or "bus",) * width
    routers: dict[tuple[int, int], tuple[int, ...]] = {}
    rails: dict[tuple[int, int], tuple[int, ...]] = {}
    for l in range(n):
        for j, node in enumerate(reg.nodes(1 << l, l, *router_roles, *rail_roles)):
            routers[l, j], rails[l, j] = node[:width], node[width:]
    for j, leaf in enumerate(reg.nodes(1 << n, n, *rail_roles)):
        rails[n, j] = leaf
    return reg, ports, bus, routers, rails


def _pipeline_layers(
    n: int,
    dist: list[int],
    cost: CycleCost,
    database: tuple[int, ...],
    ports: Sequence[tuple[int, ...]],
    rails: dict[tuple[int, int], tuple[int, ...]],
    routers: dict[tuple[int, int], tuple[int, ...]],
    inject_bus: list[Gate],
    route: Callable[..., list[Gate]],
) -> list[Layer]:
    """Sequential-address pipeline: payload k enters two phases after k-1.

    Address bit k is moved from its port into the root rail at phase 2k,
    crosses one level per phase, and is parked in its router at phase
    3k+1; the bus enters (`inject_bus`) one extra phase behind the last
    address bit. Payloads therefore stay at least two levels apart and
    route layers of distinct payloads merge. The data copy onto the leaf
    value rails runs at phase 3n+2, once the bus reaches the leaves.
    `route(router, src, dst, bit)` makes one node's routing gates; each
    level's left and right gates are made once, and every payload that
    crosses the level shares them.
    """
    routes: dict[tuple[int, int], list[Gate]] = {}

    def route_gates(level: int, bit: int) -> list[Gate]:
        gates = routes.get((level, bit))
        if gates is None:
            gates = routes[level, bit] = [
                g
                for j in range(1 << level)
                for g in route(
                    routers[level, j], rails[level, j], rails[level + 1, 2 * j + bit], bit
                )
            ]
        return gates

    layers: list[Layer] = []
    for tau in range(3 * n + 3):
        sub1 = _LayerAccum(dist, cost)
        sub2 = _LayerAccum(dist, cost)
        for k in range(n + 1):
            is_bus = k == n
            inject_at = 2 * k + 1 if is_bus else 2 * k
            if tau == inject_at:
                sub1.add(*(inject_bus if is_bus else _move(ports[k], rails[0, 0])))
            elif not is_bus and tau == 3 * k + 1:
                for j in range(1 << k):
                    sub1.add(*_move(rails[k, j], routers[k, j]))
            else:
                j = tau - inject_at
                limit = n if is_bus else k
                if 1 <= j <= limit:
                    sub1.add(*route_gates(j - 1, 0))
                    sub2.add(*route_gates(j - 1, 1))
        if tau == 3 * n + 2:
            for j in range(1 << n):
                sub1.add(Gate.classical_cx(database[j], rails[n, j][0]))
        layers.extend(_seal_phases([sub1, sub2], tau))
    return layers


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
        n, dist, cost, database, ports, rails, routers, _move(bus, rails[0, 0]), _route
    )
    return _tree_schedule(
        architecture, router_kind, n, reg, layers, profile, cost, database, round_trip,
        roots=ports + [bus],
        routers=routers,
        leaves=[rails[n, j] for j in range(1 << n)],
    )


MAX_DEPTH = 16


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
    # bus), split into modes of `width` rails
    reg = _Registry()
    address, bus = ("address",) * width, ("bus",) * width
    routers: dict[tuple[int, int], tuple[int, ...]] = {}
    slots: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for l in range(n):
        node_roles = _ROUTER_ROLES[:width] + address * (n - l) + bus
        for j, node in enumerate(reg.nodes(1 << l, l, *node_roles)):
            routers[l, j] = node[:width]
            slots[l, j] = [node[i:i + width] for i in range(width, len(node), width)]
    for j, leaf in enumerate(reg.nodes(1 << n, n, *bus)):
        slots[n, j] = [leaf]

    dist = _distance_table(reg.levels, profile)
    layers: list[Layer] = []
    phase = 0
    for l in range(n):
        park = _LayerAccum(dist, cost)
        for j in range(1 << l):
            park.add(*_move(slots[l, j][0], routers[l, j]))
        layers.extend(_seal_phases([park], phase))
        phase += 1
        for s in range(1, n - l + 1):
            for bit in (0, 1):
                acc = _LayerAccum(dist, cost)
                for j in range(1 << l):
                    child = slots[l + 1, 2 * j + bit]
                    acc.add(*_route(routers[l, j], slots[l, j][s], child[s - 1], bit))
                layers.extend(_seal_phases([acc], phase))
            phase += 1
    copy = _LayerAccum(dist, cost)
    for j in range(1 << n):
        copy.add(Gate.classical_cx(database[j], slots[n, j][0][0]))
    layers.extend(_seal_phases([copy], phase))

    return _tree_schedule(
        "ft-hetero", router_kind, n, reg, layers, profile, cost, database, round_trip,
        roots=slots[0, 0],
        routers=routers,
        leaves=[slots[n, j][0] for j in range(1 << n)],
    )


# ---------------------------------------------------------------------------
# quantum-walker builder


def walker_s_hop(parent_b: int, parent_r: int, child_b: int, child_r: int) -> Gate:
    """The two-site walker hop on dual-rail modes (|phi>=00, |B>=10, |R>=01).

    Swaps |phi, B> <-> |R, phi> (child, parent) and fixes every other
    encoded basis state; it is its own inverse.
    """
    return Gate.cswap([(child_b, 0), (parent_r, 0)], parent_b, child_r)


def _steer_route(
    steer: Sequence[int], src: Sequence[int], dst: Sequence[int], bit: int
) -> list[Gate]:
    """A walker's hop into child `bit`, rail by rail, fired by the steer
    cell's B rail (bit 0, left) or R rail (bit 1, right)."""
    controls = [(steer[bit], 1)]
    return [Gate.cswap(controls, a, b) for a, b in zip(src, dst)]


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
    profile = _profile_for(n, profile, DistanceProfile.uniform(n, 7))

    reg, ports, bus, steer, rails = _pipeline_registry(n, 2, role="walker")
    dist = _distance_table(reg.levels, profile)
    hop = [walker_s_hop(*bus, *rails[0, 0])]
    layers = _pipeline_layers(n, dist, cost, database, ports, rails, steer, hop, _steer_route)

    def initial_word(address: int) -> int:
        word = 1 << bus[0]
        for k in range(n):
            word |= 1 << ports[k][address_bit(address, k, n)]
        return word

    def mask(address: int) -> tuple[int, ...]:
        cells = [steer[key] for key in enumerate(path_nodes(address, n))]
        return tuple(q for cell in cells + [rails[n, address]] for q in cell)

    def decode(word: int) -> tuple[int, int, bool]:
        addr = 0
        j = 0
        for l in range(n):
            bit = (word >> steer[l, j][1]) & 1
            addr = (addr << 1) | bit
            j = 2 * j + bit
        b, r = rails[n, addr]
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
        input_qubits=tuple(q for rail in zip(*ports) for q in rail) + bus,
        _initial_word_fn=initial_word,
        _mask_fn=mask,
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
