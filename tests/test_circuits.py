"""Schedule builders: routing correctness, layer structure, coherence envelopes."""

import dataclasses
import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from hetqram.analytics import BoundInputs, bb_coherence_time, ft_coherence_time
from hetqram.circuits import (
    Gate,
    GateKind,
    GateTable,
    Layer,
    Schedule,
    _check_layer_parallel,
    _distance_table,
    _first_fault,
    _LayerAccum,
    build_bb_hetero,
    build_ft_hetero,
    build_schedule,
    build_uniform_bb,
    build_walker,
    measured_coherence_cycles,
    path_nodes,
    run_noiseless,
    validate_database,
    walker_s_hop,
)
from hetqram.cli import main
from hetqram.engine import PlaneEngine
from hetqram.noise import CycleCost, DistanceProfile

ALL_VARIANTS = [
    ("uniform-bb", "qutrit"),
    ("uniform-bb", "qubit"),
    ("ft-hetero", "qutrit"),
    ("ft-hetero", "qubit"),
    ("bb-hetero", "qutrit"),
    ("bb-hetero", "qubit"),
    ("walker", "qutrit"),
]


def make(arch, kind, n, db, **kw):
    if arch == "uniform-bb":
        return build_uniform_bb(n, kind, db, **kw)
    if arch == "ft-hetero":
        return build_ft_hetero(n, kind, db, **kw)
    if arch == "bb-hetero":
        return build_bb_hetero(n, kind, db, **kw)
    return build_walker(n, db, **kw)


# -- gates and layers ---------------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate.cswap([(0, 1)], 0, 2)
    with pytest.raises(ValueError):
        Gate.cswap([(0, 1), (1, 0), (2, 1)], 3, 4)
    with pytest.raises(ValueError):
        Gate.cswap([(0, 2)], 1, 3)


def _schedule_with(gates, qubits=4):
    return Schedule("uniform-bb", "qubit", 1, (0,) * qubits, ("bus",) * qubits,
                    (Layer.of_gates(gates, 1),), DistanceProfile.uniform(1, 3), CycleCost(), (0, 1))


@pytest.mark.parametrize("make_fault,message", [
    (lambda: Gate.cswap([], 0, 1), "1 or 2 controls"),
    (lambda: Gate.cswap([(0, 1), (1, 0), (2, 1)], 3, 4), "1 or 2 controls"),
    (lambda: Gate.classical_cx(2, 0), "data_bit must be 0 or 1"),
    (lambda: Gate.cswap([(0, 1), (0, 0)], 2, 3), "duplicate control qubit"),
    (lambda: Gate.cswap([(0, 1)], 0, 2), "controls overlap operands"),
    (lambda: Gate.cswap([(0, 1)], 2, 2), "duplicate operand"),
    (lambda: Gate.swap(2, 2), "duplicate operand"),
    (lambda: Gate.cswap([(0, 2)], 1, 3), "polarity must be 0 or 1"),
    (lambda: _check_layer_parallel([Gate.swap(0, 1), Gate.swap(1, 2)]),
     "overlapping operands in layer"),
    (lambda: _check_layer_parallel([Gate.swap(0, 1), Gate.cswap([(1, 1)], 2, 3)]),
     "a control qubit is another gate's operand in the same layer"),
    (lambda: _check_layer_parallel([Gate.cswap([(0, 1), (1, 0)], 2, 3),
                                    Gate.cswap([(0, 1), (6, 0)], 4, 5)]),
     "overlapping but non-identical control sets in layer"),
    (lambda: _schedule_with([Gate.swap(0, 1), Gate.cswap([(2, 1)], 3, 4)]),
     "gate touches unregistered qubit 4"),
    (lambda: _schedule_with([Gate.x(-1)]), "gate touches unregistered qubit -1"),
], ids=["no-control", "three-controls", "data-bit", "duplicate-control", "control-on-operand",
        "duplicate-operand", "self-swap", "polarity", "layer-operands", "layer-control-on-operand",
        "layer-control-sets", "unregistered-high", "unregistered-negative"])
def test_every_check_raises_its_message(make_fault, message):
    """Each validation condition of gates, layers and schedules has a case
    that only it catches, named by its message."""
    with pytest.raises(ValueError, match=re.escape(message)):
        make_fault()


def test_checks_pass_valid_input():
    """The cases above, minus their one fault, pass every check."""
    Gate.cswap([(0, 1), (1, 0)], 2, 3)
    Gate.classical_cx(1, 0)
    _check_layer_parallel([Gate.swap(0, 1), Gate.cswap([(4, 1)], 2, 3)])
    _check_layer_parallel([Gate.cswap([(0, 1), (1, 0)], 2, 3),
                           Gate.cswap([(1, 0), (0, 1)], 4, 5)])  # one control set
    # a gate's own operands are Gate's to check, so build the self-swap raw
    _check_layer_parallel([Gate(GateKind.SWAP, (2, 2))])
    assert _schedule_with([Gate.swap(0, 1), Gate.cswap([(2, 1)], 3, 4)], qubits=5).depth == 1


def test_gate_word_application():
    assert Gate.swap(0, 1).apply_to_word(0b01) == 0b10
    assert Gate.cswap([(0, 1)], 1, 2).apply_to_word(0b011) == 0b101
    assert Gate.cswap([(0, 0)], 1, 2).apply_to_word(0b011) == 0b011
    assert Gate.x(2).apply_to_word(0) == 0b100
    assert Gate.classical_cx(1, 0).apply_to_word(0) == 1
    assert Gate.classical_cx(0, 0).apply_to_word(1) == 1


def test_layer_rejects_operand_overlap():
    with pytest.raises(ValueError):
        _check_layer_parallel([Gate.swap(0, 1), Gate.swap(1, 2)])
    with pytest.raises(ValueError):
        _check_layer_parallel([Gate.swap(0, 1), Gate.cswap([(1, 1)], 2, 3)])


def test_layer_allows_identical_control_groups_only():
    g1 = Gate.cswap([(0, 1), (1, 0)], 2, 3)
    g2 = Gate.cswap([(0, 1), (1, 0)], 4, 5)
    _check_layer_parallel([g1, g2])  # same control set: one mode-swap
    g3 = Gate.cswap([(0, 1), (6, 0)], 4, 5)
    with pytest.raises(ValueError):
        _check_layer_parallel([g1, g3])


def test_all_built_layers_are_parallel():
    db = [0, 1] * 8
    for arch, kind in ALL_VARIANTS:
        sched = make(arch, kind, 4, db)
        for layer in sched.layers:
            _check_layer_parallel(layer.gates)
            assert layer.code_cycles >= 1


_T = GateTable


def _mutate(table, row, **columns):
    """A copy of `table` with the named columns of one row replaced."""
    table = table.copy()
    for name, value in columns.items():
        table[row, getattr(_T, name)] = value
    return table


# each fault on a real layer (rows 0, 1 route one node's rails under one
# control set, rows 2, 3 the next node's), by a one-row mutation
TABLE_FAULTS = {
    "duplicate-operand": (lambda t: _mutate(t, 0, B=t[0, _T.A]), "duplicate operand"),
    "duplicate-control": (lambda t: _mutate(t, 0, C1=t[0, _T.C0]), "duplicate control qubit"),
    "control-on-operand": (lambda t: _mutate(t, 0, C0=t[0, _T.A]), "controls overlap operands"),
    "polarity": (lambda t: _mutate(t, 0, P1=2), "polarity must be 0 or 1"),
    "shared-operands": (lambda t: _mutate(t, 2, A=t[0, _T.B]), "overlapping operands in layer"),
    "control-is-operand": (lambda t: _mutate(t, 2, C0=t[0, _T.A]),
                           "a control qubit is another gate's operand in the same layer"),
    "control-sets": (lambda t: _mutate(t, 1, P1=1 - t[1, _T.P1]),
                     "overlapping but non-identical control sets in layer"),
}


def _routing_layer(sched):
    """Index of the first layer that routes two or more nodes, whose rows
    0, 1 and 2, 3 are two nodes' rails under their control sets."""
    li = next(i for i, layer in enumerate(sched.layers)
              if np.count_nonzero(layer.table[:, _T.KIND] == _T.CCSWAP) >= 4)
    controls = sched.layers[li].table[:4, _T.C0:]
    assert (controls[0] == controls[1]).all() and (controls[2] == controls[3]).all()
    assert (controls[0] != controls[2]).any()
    return li


def _seal(sched, tables):
    """`_LayerAccum.seal` of `tables`, one layer each, at the schedule's phases."""
    acc = _LayerAccum(_distance_table(sched.levels, sched.profile), sched.cost)
    for layer, table in zip(sched.layers, tables):
        acc.add(layer.phase, table)
    return acc.seal()


@pytest.mark.parametrize("fault", TABLE_FAULTS)
def test_table_checks_raise_each_fault_message(fault):
    """Sealing the tables of a real n=3 schedule, one of whose layers has a
    one-row mutation, raises the message that `Gate._validate` or
    `_check_layer_parallel` gives that fault; the unmutated tables seal to
    the built layers."""
    sched = build_bb_hetero(3, "qutrit", [1, 0, 0, 1, 1, 1, 0, 1])
    tables = [layer.table for layer in sched.layers]
    assert _seal(sched, tables) == list(sched.layers)
    li = _routing_layer(sched)
    mutate, message = TABLE_FAULTS[fault]
    tables[li] = mutate(tables[li])
    with pytest.raises(ValueError, match=re.escape(message)):
        _seal(sched, tables)


def test_schedule_rejects_an_unregistered_qubit_in_a_table():
    """A one-row mutation of a real n=3 layer onto a qubit past the
    registry raises the range check's message from `Schedule`."""
    sched = build_bb_hetero(3, "qutrit", [1, 0, 0, 1, 1, 1, 0, 1])
    li = _routing_layer(sched)
    layers = list(sched.layers)
    bad = layers[li]
    for column, q in (("C1", sched.qubit_count), ("A", -2)):
        layers[li] = Layer(_mutate(bad.table, 3, **{column: q}), bad.code_cycles,
                           bad.noise_rounds, bad.phase)
        with pytest.raises(ValueError, match=re.escape(f"gate touches unregistered qubit {q}")):
            dataclasses.replace(sched, layers=tuple(layers))


def test_first_fault_flags_exactly_what_the_gate_checks_reject():
    """`_first_fault` flags a layer exactly when its gates fail
    `Gate._validate` or `_check_layer_parallel`: random one-entry
    mutations of every n=3 layer of every variant, each checked behind an
    unmutated layer so that a collision across layers would show."""
    rng = random.Random(5)
    qubit_columns = {"A": 0, "B": 1, "C0": 2, "C1": 3}
    for arch, kind in ALL_VARIANTS:
        sched = make(arch, kind, 3, [0, 1, 1, 0, 1, 0, 0, 1])
        nq = sched.qubit_count
        for before, layer in zip(sched.layers, sched.layers[1:]):
            qubits = sorted(layer.touched() | before.touched())
            for _ in range(30):
                row = rng.randrange(len(layer.table))
                present = _T.PRESENT[layer.table[row, _T.KIND]]
                column = rng.choice([c for c, i in qubit_columns.items() if present[i]]
                                    + ["P0", "P1"] * bool(present[2]))
                if column == "P1" and not present[3]:
                    continue
                value = rng.choice([0, 1, 2, -1]) if column[0] == "P" else rng.choice(qubits)
                table = _mutate(layer.table, row, **{column: value})
                try:
                    gates = Layer(table, 1).gates
                    for g in gates:
                        g._validate()
                    _check_layer_parallel(gates)
                    expect = None
                except ValueError:
                    expect = 1
                rows = np.concatenate([before.table, table])
                at = np.repeat([0, 1], [len(before.table), len(table)])
                assert _first_fault(rows, at, nq) == expect, (arch, kind, row, column, value)


def _first_active_layer_sets(sched):
    """Set-based definition: each qubit's first layer in the union of
    its layers' gate supports; input qubits live from layer 0."""
    first = [len(sched.layers)] * sched.qubit_count
    for q in sched.input_qubits:
        first[q] = 0
    for i, layer in enumerate(sched.layers):
        for q in layer.touched():
            if i < first[q]:
                first[q] = i
    return tuple(first)


@pytest.mark.parametrize("arch,kind", ALL_VARIANTS)
def test_first_active_layer_equals_set_definition(arch, kind):
    rng = random.Random(3)
    for n in range(1, 6):
        db = [rng.randint(0, 1) for _ in range(1 << n)]
        protocols = [{}] if arch == "walker" else [{"round_trip": True}, {"round_trip": False}]
        for kw in protocols:
            sched = make(arch, kind, n, db, **kw)
            assert sched.first_active_layer() == _first_active_layer_sets(sched), (n, kw)


def test_database_validation():
    with pytest.raises(ValueError):
        validate_database([0, 1, 0], 2)
    with pytest.raises(ValueError):
        validate_database([0, 2], 1)
    with pytest.raises(ValueError):
        build_uniform_bb(0, "qubit", [])
    with pytest.raises(ValueError):
        build_uniform_bb(2, "tritium", [0] * 4)


# -- noiseless functional correctness ----------------------------------------


@pytest.mark.parametrize("arch,kind", ALL_VARIANTS)
def test_noiseless_routing_matches_lookup(arch, kind):
    """Every builder decodes every address under its default protocol, and
    the router trees also with the return pass explicitly on and off."""
    protocols = [{}] if arch == "walker" else [{}, {"round_trip": True}, {"round_trip": False}]
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            db = [rng.randint(0, 1) for _ in range(1 << n)]
            for kw in protocols:
                sched = make(arch, kind, n, db, **kw)
                for addr in range(1 << n):
                    word = run_noiseless(sched, sched.initial_word(addr))
                    assert sched.decode(word) == (addr, db[addr], True), (n, kw, addr)


@pytest.mark.parametrize("arch,kind", ALL_VARIANTS)
def test_superposition_branches_stay_distinct_and_uniform(arch, kind):
    n = 3
    db = [1, 0, 0, 1, 1, 1, 0, 1]
    sched = make(arch, kind, n, db)
    finals = {}
    for word in map(sched.initial_word, range(1 << n)):
        finals[word] = run_noiseless(sched, word)
    assert len(set(finals.values())) == 1 << n
    decoded = sorted(sched.decode(w)[:2] for w in finals.values())
    assert decoded == sorted((a, db[a]) for a in range(1 << n))


def test_ideal_word_cached_and_consistent():
    sched = build_bb_hetero(2, "qutrit", [1, 0, 1, 1])
    w1 = sched.ideal_word(3)
    assert w1 == run_noiseless(sched, sched.initial_word(3))
    assert sched.ideal_word(3) is w1 or sched.ideal_word(3) == w1


# -- structure: depth scaling and pipelining -----------------------------------


def test_uniform_bb_depth_scales_linearly():
    db4, db8 = [0] * 16, [0] * 256
    r = build_uniform_bb(8, "qutrit", db8).depth / build_uniform_bb(4, "qutrit", db4).depth
    assert 1.8 <= r <= 2.4


def test_bb_hetero_depth_scales_linearly():
    r = build_bb_hetero(8, "qutrit", [0] * 256).depth / build_bb_hetero(4, "qutrit", [0] * 16).depth
    assert 1.8 <= r <= 2.4


def test_ft_hetero_depth_scales_quadratically():
    r = build_ft_hetero(8, "qutrit", [0] * 256).depth / build_ft_hetero(4, "qutrit", [0] * 16).depth
    assert 3.2 <= r <= 5.0


@pytest.mark.parametrize("n", [3, 4, 6])
def test_bb_pipeline_overlaps_levels(n):
    sched = build_bb_hetero(n, "qutrit", [0] * (1 << n))
    overlapping = 0
    for layer in sched.layers:
        lvls = {sched.levels[q] for g in layer.gates for q in g.support()}
        if len(lvls) > 1:
            gate_lvls = {
                min(sched.levels[q] for q in g.support()) for g in layer.gates
            }
            if len(gate_lvls) > 1:
                overlapping += 1
    assert overlapping >= 1


def test_ft_registry_slot_capacity_shrinks():
    sched = build_ft_hetero(4, "qutrit", [0] * 16)
    per_level = {}
    for q in range(sched.qubit_count):
        per_level.setdefault(sched.levels[q], []).append(sched.roles[q])
    # level l: 2(n-l+1) transit qubits + 2 router qubits per node
    for l in range(4):
        assert len(per_level[l]) == (1 << l) * (2 * (4 - l + 1) + 2)


def test_qutrit_routing_gates_guard_on_active_bit():
    """Wait-state routers (a=0) never route: every routed swap checks a=+1."""
    for arch in ("uniform-bb", "bb-hetero", "ft-hetero"):
        sched = make(arch, "qutrit", 3, [0] * 8)
        for layer in sched.layers:
            for g in layer.gates:
                if g.kind is GateKind.CCSWAP:
                    roles = {sched.roles[q]: pol for q, pol in g.controls}
                    assert roles.get("router_active") == 1


def test_off_path_routers_stay_waiting():
    sched = build_bb_hetero(3, "qutrit", [0] * 8)
    addr = 5
    word = run_noiseless(sched, sched.initial_word(addr))
    on_path = set()
    j = 0
    for l, node in enumerate(path_nodes(addr, 3)):
        on_path.add((l, node))
    for q in range(sched.qubit_count):
        if sched.roles[q] == "router_active" and ((word >> q) & 1):
            lvl = sched.levels[q]
            assert any(lvl == l for l, _ in on_path)


# -- coherence envelopes --------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("kind", ["qutrit", "qubit"])
def test_ft_coherence_envelope(n, kind, subtests=None):
    sched = build_ft_hetero(n, kind, [0] * (1 << n))
    inp = BoundInputs(n)
    for j in range(n):
        t_formula = ft_coherence_time(inp, j)
        measured = measured_coherence_cycles(sched, j)
        assert t_formula / 4 <= measured <= t_formula, (n, kind, j)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("kind", ["qutrit", "qubit"])
def test_bb_coherence_envelope(n, kind):
    sched = build_bb_hetero(n, kind, [0] * (1 << n))
    inp = BoundInputs(n)
    for i in range(n + 1):
        t_formula = bb_coherence_time(inp, i)
        measured = measured_coherence_cycles(sched, i)
        assert t_formula / 4 <= measured <= t_formula, (n, kind, i)


def test_leaf_coherence_below_root():
    for arch in ("bb-hetero", "ft-hetero"):
        sched = make(arch, "qutrit", 5, [0] * 32)
        assert measured_coherence_cycles(sched, 5) <= measured_coherence_cycles(sched, 0)


# -- layer costs ----------------------------------------------------------------


def test_uniform_layer_costs_use_single_distance():
    d = 5
    sched = build_uniform_bb(3, "qutrit", [0] * 8, distance=d)
    cost = CycleCost()
    for layer in sched.layers:
        kinds = {g.kind for g in layer.gates}
        if kinds & {GateKind.CSWAP, GateKind.CCSWAP}:
            assert layer.code_cycles == cost.c * d
        else:
            assert layer.code_cycles == cost.s * d


def test_hetero_layer_costs_follow_max_distance():
    sched = build_bb_hetero(4, "qutrit", [0] * 16)
    prof = DistanceProfile.linear(4)
    for layer in sched.layers:
        expect = 0
        for g in layer.gates:
            d = max(prof.distance(sched.levels[q]) for q in g.support())
            step = 2 if g.kind in (GateKind.CSWAP, GateKind.CCSWAP) else 1
            expect = max(expect, step * d)
        assert layer.code_cycles == expect


# -- walker specifics -------------------------------------------------------------


def test_walker_s_hop_action_on_encoded_states():
    """(child, parent): |phi,B> <-> |R,phi>, everything else fixed."""
    pb, pr, cb, cr = 0, 1, 2, 3
    gate = walker_s_hop(pb, pr, cb, cr)
    enc = {"phi": (0, 0), "B": (1, 0), "R": (0, 1)}

    def word(parent, child):
        p, c = enc[parent], enc[child]
        return p[0] << pb | p[1] << pr | c[0] << cb | c[1] << cr

    assert gate.apply_to_word(word("B", "phi")) == word("phi", "R")
    assert gate.apply_to_word(word("phi", "R")) == word("B", "phi")
    for parent in enc:
        for child in enc:
            w = word(parent, child)
            if (parent, child) in {("B", "phi"), ("phi", "R")}:
                continue
            assert gate.apply_to_word(w) == w, (parent, child)


def test_walker_s_hop_involution():
    gate = walker_s_hop(0, 1, 2, 3)
    for w in range(16):
        assert gate.apply_to_word(gate.apply_to_word(w)) == w


def test_walker_depth_quadratic_ratio_is_linear_in_layers():
    # the walker pipeline is BB-like; depth stays linear in n
    r = build_walker(6, [0] * 64).depth / build_walker(3, [0] * 8).depth
    assert 1.7 <= r <= 2.4


def test_walker_contains_s_hop_gate():
    sched = build_walker(2, [0, 1, 1, 0])
    found = False
    for layer in sched.layers:
        for g in layer.gates:
            if g.kind is GateKind.CCSWAP and {pol for _, pol in g.controls} == {0}:
                found = True
    assert found


# -- dump format -------------------------------------------------------------------


def test_dump_format_lines():
    sched = build_uniform_bb(1, "qubit", [1, 0], distance=2)
    text = sched.dump()
    lines = text.strip().split("\n")
    assert len(lines) == sched.depth
    for k, line in enumerate(lines):
        assert line.startswith(f"L{k} cycles=")
        assert " | " in line
    assert "CLASSICALCX(data=1,q=" in text
    assert "CSWAP(ctrl=q" in text


def test_dump_golden_n1(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "uniform_bb_n1_qubit.dump"
    sched = build_uniform_bb(1, "qubit", [1, 0], distance=2)
    assert sched.dump() == golden.read_text()


def schedule_digests() -> dict[str, str]:
    """sha256 of every variant's schedule at n=1..8 under each protocol:
    its `dump()`, its qubit `levels` and `roles`, each layer's
    (code_cycles, noise_rounds, phase), which `dump()` leaves out, its
    `input_qubits` in order, and (initial_word, output_mask) of every
    address. The walker has no return pass, so it has one protocol.
    Regenerate the golden file with `python -c "import json, test_circuits
    as t; print(json.dumps(t.schedule_digests(), indent=1,
    sort_keys=True))"` from `tests/`."""
    out = {}
    for arch, kind in ALL_VARIANTS:
        for n in range(1, 9):
            for rt in [None] if arch == "walker" else [None, True, False]:
                sched = build_schedule(arch, n, kind, _digest_database(n), round_trip=rt)
                out[f"{arch}/{kind}/n={n}/rt={rt}"] = schedule_digest(sched)
    return out


def _digest_database(n):
    rng = random.Random(n)
    return [rng.randint(0, 1) for _ in range(1 << n)]


def schedule_digest(sched) -> str:
    """sha256 of one schedule's entry in `schedule_digests`."""
    pricing = [(l.code_cycles, l.noise_rounds, l.phase) for l in sched.layers]
    readout = [(sched.initial_word(a), sched.output_mask(a)) for a in range(1 << sched.n)]
    text = (f"{sched.dump()}{sched.levels}\n{sched.roles}\n{pricing}\n"
            f"{sched.input_qubits}\n{readout}\n")
    return hashlib.sha256(text.encode()).hexdigest()


def test_schedule_digests_golden():
    """Every built schedule, its gates, registry levels and per-layer
    pricing, is byte-identical to the one the golden file was made from."""
    golden = json.loads((Path(__file__).parent / "data" / "schedule_digest.json").read_text())
    assert schedule_digests() == golden


@pytest.mark.parametrize("arch", ["bb-hetero", "ft-hetero", "uniform-bb"])
def test_sim_point_constructs_no_gate(arch, monkeypatch, tmp_path):
    """One `sim` point (qutrit, n=8, the architecture's own protocol, on
    the digest's database) builds its schedule, compiles it and runs its
    trials without constructing a `Gate`. Reading `Layer.gates` afterwards
    gives the gates of the golden schedule digest."""
    built, compiled, made = [], [], []

    def recording_build(*args, **kwargs):
        built.append(build_schedule(*args, **kwargs))
        return built[-1]

    compile_layers = PlaneEngine._compile
    init = Gate.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr("hetqram.harness.database_for", lambda config, n: _digest_database(n))
    monkeypatch.setattr("hetqram.harness.build_schedule", recording_build)
    monkeypatch.setattr(PlaneEngine, "_compile",
                        lambda self, keep: compiled.append(keep) or compile_layers(self, keep))
    monkeypatch.setattr(Gate, "__init__", counting_init)
    out = tmp_path / "point.csv"
    assert main(["sim", "--arch", arch, "--routers", "qutrit", "--n", "8", "--p-prime", "0.1",
                 "--trials", "128", "--seed", "7", "--out", str(out)]) == 0
    assert len(built) == 1 and compiled  # the point saw events, so it compiled
    assert made == []
    golden = json.loads((Path(__file__).parent / "data" / "schedule_digest.json").read_text())
    assert schedule_digest(built[0]) == golden[f"{arch}/qutrit/n=8/rt=None"]
    assert len(made) == sum(len(layer.table) for layer in built[0].layers)


def test_build_schedule_dispatch():
    db = [0, 1, 1, 0]
    s = build_schedule("bb-hetero", 2, "qutrit", db)
    assert s.architecture == "bb-hetero"
    s = build_schedule("uniform-bb", 2, "qubit", db, profile=DistanceProfile.uniform(2, 5))
    assert s.profile.uniform_d == 5
    with pytest.raises(ValueError):
        build_schedule("uniform-bb", 2, "qubit", db, profile=DistanceProfile.linear(2))
    with pytest.raises(ValueError):
        build_schedule("nope", 2, "qubit", db)


def test_wait_state_freezes_off_path_junk_qutrit_routes_it_qubit():
    """A spurious excitation on an off-path rail stays put under wait-state
    routers but is actively routed into a leaf cell by single-qubit routers.
    """
    observed = {}
    for kind in ("qutrit", "qubit"):
        sched = build_bb_hetero(2, kind, [0, 0, 0, 0])
        rails1 = [
            q for q in range(sched.qubit_count)
            if sched.levels[q] == 1 and sched.roles[q] == "bus"
        ]
        per = 2 if kind == "qutrit" else 1
        junk_bit = rails1[per * 1]  # node (1,1) value rail; address 0 goes left
        inject_after = max(i for i, l in enumerate(sched.layers) if l.phase == 6)
        word = sched.initial_word(0)
        for li, layer in enumerate(sched.layers):
            for g in layer.gates:
                word = g.apply_to_word(word)
            if li == inject_after:
                word ^= 1 << junk_bit
        leaves = [
            q for q in range(sched.qubit_count)
            if sched.levels[q] == 2 and sched.roles[q] == "bus"
        ]
        junk_leaves = sum(
            (word >> q) & 1 for q in leaves if q not in sched.output_mask(0)
        )
        observed[kind] = ((word >> junk_bit) & 1, junk_leaves)
        assert sched.decode(word)[:2] == (0, 0)  # the queried branch still reads 0
    assert observed["qutrit"] == (1, 0)  # frozen on the rail
    assert observed["qubit"] == (0, 1)  # descended into an off-path leaf
