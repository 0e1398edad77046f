"""Batched plane engine against the word-by-word oracle and hand-checkable cases."""

import copy
import functools
import json
import math
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from compile_oracle import reference_compile
from word_oracle import reference_fidelity, sampled_events

from hetqram import engine
from hetqram.circuits import (
    GateKind,
    build_bb_hetero,
    build_ft_hetero,
    build_schedule,
    build_uniform_bb,
    build_walker,
)
from hetqram.engine import (
    _DEVIATION_ROWS,
    _PASS_BYTES,
    PlaneEngine,
    _DeviationStore,
    _bernoulli_hits,
    _gate_pass,
    _pack_span,
    _slot_columns,
    _trial_units,
    _uniform,
    _unpack_bits_lsb,
)
from hetqram.harness import infidelity_stats, run_fidelities
from hetqram.noise import (
    DistanceProfile,
    NoiseModel,
    NoisePlan,
    PauliEvent,
    SurfaceParams,
    net_flip_probability,
    trajectory_rng,
)

PARAMS = SurfaceParams(0.03, 0.2)


def _pack_bits_lsb(bits) -> np.ndarray:
    """Pack booleans along the last axis into uint64 words, bit i of word w
    = bits[64w + i]: the inverse of the engine's `_unpack_bits_lsb`."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.pad(packed, [(0, 0)] * (packed.ndim - 1) + [(0, pad)])
    return packed.view("<u8").astype(np.uint64, copy=False)


def test_pack_bits_lsb_roundtrip():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=130).astype(bool)
    words = _pack_bits_lsb(bits)
    assert words.shape == (3,)
    for i, b in enumerate(bits):
        assert ((int(words[i // 64]) >> (i % 64)) & 1) == int(b)
    assert np.array_equal(_unpack_bits_lsb(words, bits.size), bits)


@pytest.mark.parametrize("slots,q", [(1, 0.5), (50, 0.2), (1000, 0.003), (700, 0.97), (10**7, 1e-20)])
def test_bernoulli_hits_sorted_distinct_in_range(slots, q):
    rng = np.random.default_rng(1)
    for _ in range(200):
        hits = _bernoulli_hits(rng, slots, q)
        assert hits.dtype == np.int64
        assert np.all(np.diff(hits) > 0)
        assert hits.size == 0 or (hits[0] >= 0 and hits[-1] < slots)


def test_bernoulli_hits_count_is_binomial():
    """Chi-square of the hit count over 20 000 draws against
    Binomial(slots, q), bins with expectation under 5 pooled into the tails;
    the Wilson-Hilferty normal score of the statistic stays under 3.5
    (p ~ 2e-4)."""
    slots, q, reps = 40, 0.1, 20_000
    rng = np.random.default_rng(7)
    counts = np.bincount([_bernoulli_hits(rng, slots, q).size for _ in range(reps)],
                         minlength=slots + 1)
    pmf = np.array([math.comb(slots, k) * q**k * (1 - q) ** (slots - k)
                    for k in range(slots + 1)])
    expect = reps * pmf
    keep = np.flatnonzero(expect >= 5)
    lo, hi = keep[0], keep[-1]
    obs = np.concatenate([[counts[:lo + 1].sum()], counts[lo + 1:hi], [counts[hi:].sum()]])
    exp = np.concatenate([[expect[:lo + 1].sum()], expect[lo + 1:hi], [expect[hi:].sum()]])
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = obs.size - 1
    z = ((stat / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
    assert z < 3.5, (stat, dof)


def test_bernoulli_hits_extend_past_the_first_draw():
    """A generator whose gaps are all 1 hits every slot, which forces the
    extension loop to draw again and again, on both sides of q = 1/3."""

    class UnitGaps:
        calls = 0

        def geometric(self, p, size):
            UnitGaps.calls += 1
            return np.ones(size, dtype=np.int64)

        def standard_exponential(self, size):
            UnitGaps.calls += 1
            return np.full(size, 1e-300)

    for q in (0.01, 0.5):
        UnitGaps.calls = 0
        hits = _bernoulli_hits(UnitGaps(), 1000, q)
        assert np.array_equal(hits, np.arange(1000))
        assert UnitGaps.calls > 1


def _bernoulli_hits_geometric(rng, slots, q):
    """The reference sampler: gaps drawn by `Generator.geometric(q)`."""

    def gaps(expect):
        m = int(expect + 5.0 * np.sqrt(expect)) + 16
        return np.minimum(rng.geometric(q, m), slots + 1)

    hits = np.cumsum(gaps(slots * q)) - 1
    while hits[-1] < slots:
        more = np.cumsum(gaps((slots - hits[-1]) * q)) + hits[-1]
        hits = np.concatenate([hits, more])
    return hits[: np.searchsorted(hits, slots)]


@pytest.mark.parametrize(
    "q", [1e-20, 1e-16, 1e-7, 1e-3, 0.01, 0.1, 0.2, 0.3, 0.3333, 1 / 3, 0.4, 0.97])
def test_bernoulli_hits_equal_geometric_reference(q):
    """The same hits as the sampler on `Generator.geometric`, from the same
    stream, and the generator left in the same state: q on both sides of
    1/3 (inversion below, search above), tiny q whose gaps are clipped,
    slots from 1 to 10^6, and several calls in a row on one stream. At
    q = 1e-16 over 10^17 slots the gaps pass 2^53, where floats are spaced
    2 apart, so a second rounding (a multiply by 1 / log1p(-q)) shows."""
    got_rng, ref_rng = trajectory_rng(3, 1), trajectory_rng(3, 1)
    for slots in (1, 2, 10, 999, 10**4, 10**6, 10**17):
        if slots * q > 10**7:
            continue
        for _ in range(3):
            got = _bernoulli_hits(got_rng, slots, q)
            ref = _bernoulli_hits_geometric(ref_rng, slots, q)
            assert got.dtype == ref.dtype == np.int64
            assert np.array_equal(got, ref), (slots, q)
            assert repr(got_rng.bit_generator.state) == repr(ref_rng.bit_generator.state)


def _sampled_codes(engine, rng, n_trials):
    """One batch's event codes from the engine's sampler, as one array."""
    return np.concatenate([np.zeros(0, dtype=np.int64)]
                          + engine._sample_events(rng, n_trials, n_trials, 0))


def _events_by_key(engine, rng, n_trials):
    """Sampled events as (key, qubit, trial) arrays, key = layer * 2 + is_z,
    decoded from the engine's event codes."""
    codes = _sampled_codes(engine, rng, n_trials)
    assert codes.dtype == np.int64
    cell, trial = np.divmod(codes, n_trials)
    key, qubit = np.divmod(cell, engine.schedule.qubit_count)
    return key, qubit, trial


def _x_horizons(sched):
    """Loop definition of each qubit's X horizon: the layer of its last
    gate (-1 for none), or len(layers) for a qubit that some address's
    output mask reads. An X flip after that layer or a later one only adds
    a global phase."""
    last = {}
    for li, layer in enumerate(sched.layers):
        for gate in layer.gates:
            for q in gate.support():
                last[q] = li
    for a in range(1 << sched.n):
        for q in sched.output_mask(a):
            last[q] = len(sched.layers)
    return [last.get(q, -1) for q in range(sched.qubit_count)]


def _global_phase_events(sched, basis=False):
    """Loop definition of the events that only add a global phase, as a
    test `dead(key, qubit)` of key `layer * 2 + is_z`: every Z in
    sampled-basis mode, and an X that lands after the layer of its qubit's
    last gate on a qubit that no address's output mask reads."""
    horizon = _x_horizons(sched)

    def dead(key, qubit):
        if key % 2:
            return basis
        return key // 2 >= horizon[qubit]

    return dead


def test_flip_probability_one_hits_every_live_slot():
    """With a flat rate of 1 on channel x, a phase with an odd number of
    rounds flips every live qubit in every trial (q = 1), and one with an
    even number flips none (q = 0). The sampler draws exactly the flips
    that can change a fidelity: those on qubits that a later gate or the
    readout reads."""
    sched = build_bb_hetero(2, "qutrit", [1, 0, 0, 1])
    noise = NoiseModel(PARAMS, sched.profile, channel="x", mode="aggregate", flat_rate=1.0)
    eng = PlaneEngine(sched, noise)
    n_trials = 37
    key, qubit, trial = _events_by_key(eng, trajectory_rng(0, 0), n_trials)
    dead = _global_phase_events(sched)
    expect, dropped = set(), 0
    for step in NoisePlan(sched, noise).steps:
        if step.rounds % 2:
            for g in step.groups:
                for q in g.qubits.tolist():
                    if dead(step.layer * 2, q):
                        dropped += 1
                    else:
                        expect |= {(step.layer * 2, q, t) for t in range(n_trials)}
    assert expect and dropped
    got = list(zip(key.tolist(), qubit.tolist(), trial.tolist()))
    assert len(got) == len(set(got))
    assert set(got) == expect


@pytest.mark.parametrize("channel", ["xz", "x", "z"])
def test_sampled_event_frequencies_match_noise_plan(channel):
    """On a mixed-level schedule, each (layer, qubit, X/Z) event's frequency
    over many trials equals the plan's net flip probability within 4 sigma,
    or exactly 0 for an event that only adds a global phase; no (layer,
    qubit, kind, trial) is drawn twice, and no event lands on a qubit
    before its first active layer."""
    sched = build_bb_hetero(2, "qutrit", [1, 0, 0, 1])
    noise = NoiseModel(SurfaceParams(0.3, 0.3), sched.profile, channel=channel,
                       mode="aggregate")
    n_trials = 20_000
    key, qubit, trial = _events_by_key(PlaneEngine(sched, noise), trajectory_rng(4, 0), n_trials)
    nq = sched.qubit_count
    expect = np.zeros((2 * len(sched.layers), nq))
    for step in NoisePlan(sched, noise).steps:
        for g in step.groups:
            expect[step.layer * 2, g.qubits] = net_flip_probability(g.px, step.rounds)
            expect[step.layer * 2 + 1, g.qubits] = net_flip_probability(g.pz, step.rounds)
    dead = _global_phase_events(sched)
    live = np.count_nonzero(expect)
    for k, q in np.argwhere(expect > 0).tolist():
        if dead(k, q):
            expect[k, q] = 0.0
    assert np.count_nonzero(expect) > 10 and (channel == "z" or np.count_nonzero(expect) < live)
    cell = key * nq + qubit
    assert np.unique(cell * n_trials + trial).size == cell.size
    freq = np.bincount(cell, minlength=expect.size).reshape(expect.shape) / n_trials
    sigma = np.sqrt(expect * (1 - expect) / n_trials)
    assert np.all(np.abs(freq - expect) <= 4 * sigma), np.argwhere(
        np.abs(freq - expect) > 4 * sigma)
    first = np.array(sched.first_active_layer())
    assert np.all(key // 2 >= first[qubit])


def test_noiseless_fidelity_is_one():
    for arch_build in (
        lambda: build_bb_hetero(3, "qutrit", [0, 1] * 4),
        lambda: build_uniform_bb(3, "qubit", [1] * 8, distance=3),
        lambda: build_walker(2, [1, 0, 0, 1]),
    ):
        sched = arch_build()
        eng = PlaneEngine(sched, None)
        fids = eng.run(trajectory_rng(0, 0), 9)
        assert np.all(fids == 1.0)


def test_forced_leaf_flip_kills_exactly_one_branch():
    sched = build_bb_hetero(3, "qutrit", [1, 0, 0, 1, 1, 1, 0, 1])
    eng = PlaneEngine(sched, None)
    leaf_value_bit = sched.output_mask(5)[-2]
    forced = {len(sched.layers) - 1: [PauliEvent(leaf_value_bit, "X")]}
    fids = eng.run_events(forced, 4)
    assert np.allclose(fids, (7 / 8) ** 2)


def test_forced_z_on_root_direction_halves_overlap_to_zero():
    sched = build_bb_hetero(3, "qutrit", [0] * 8)
    root_r = _root_direction(sched)
    eng = PlaneEngine(sched, None)
    forced = {len(sched.layers) - 1: [PauliEvent(root_r, "Z")]}
    fids = eng.run_events(forced, 2)
    # half the branches flip sign: overlap (4 - 4)/8 = 0
    assert np.allclose(fids, 0.0)


def test_forced_events_match_reference_engine_exactly():
    sched = build_ft_hetero(2, "qutrit", [1, 1, 0, 1])
    mask_bits = {q for a in range(4) for q in sched.output_mask(a)}
    some_rail = next(
        q for q in range(sched.qubit_count) if q not in mask_bits and sched.levels[q] == 1
    )
    for events in (
        [PauliEvent(some_rail, "X")],
        [PauliEvent(sorted(mask_bits)[0], "X"), PauliEvent(sorted(mask_bits)[2], "Z")],
    ):
        for layer_idx in (0, len(sched.layers) // 2, len(sched.layers) - 1):
            eng = PlaneEngine(sched, None)
            batch = eng.run_events({layer_idx: events}, 3)
            ref = reference_fidelity(sched, {layer_idx: events})
            assert batch == pytest.approx([ref] * 3, abs=1e-12)


def test_run_events_repeated_event_cancels_in_pairs():
    """An event given twice in one layer cancels, and three times acts
    once, as two flips of one qubit do: X on a leaf's value bit and Z on
    the root direction, each against the same event given once."""
    sched = build_bb_hetero(3, "qutrit", [1, 0, 0, 1, 1, 1, 0, 1])
    last = len(sched.layers) - 1
    leaf_value, root = sched.output_mask(5)[-2], _root_direction(sched)
    for event in (PauliEvent(leaf_value, "X"), PauliEvent(root, "Z")):
        eng = PlaneEngine(sched, None)
        once = eng.run_events({last: [event]}, 3)
        assert np.all(once < 1.0)
        assert np.all(eng.run_events({last: [event] * 2}, 3) == 1.0)
        assert eng.run_events({last: [event] * 3}, 3).tobytes() == once.tobytes()


def _root_direction(sched):
    return next(
        q
        for q in range(sched.qubit_count)
        if sched.roles[q] == "router_direction" and sched.levels[q] == 0
    )


@pytest.mark.parametrize(
    "where",
    ["qubit-past-end", "qubit-negative", "layer-past-end", "layer-negative"],
)
def test_run_events_rejects_events_outside_the_schedule(where):
    """An event on no qubit of the schedule, or after no layer of it, is
    refused rather than run. Without the check, an X on qubit
    `qubit_count + r` at the last layer would be coded as a Z on qubit r
    (fidelity 0 for the root direction of bb-hetero qutrit n=3), and an X
    at layer -1 or `len(layers)` would be dropped (fidelity 1)."""
    sched = build_bb_hetero(3, "qutrit", [0] * 8)
    nq, last = sched.qubit_count, len(sched.layers) - 1
    assert nq == 52
    layer, qubit = {
        "qubit-past-end": (last, nq + _root_direction(sched)),
        "qubit-negative": (last, -1),
        "layer-past-end": (last + 1, 0),
        "layer-negative": (-1, 0),
    }[where]
    eng = PlaneEngine(sched, None)
    with pytest.raises(ValueError, match=where.split("-")[0]):
        eng.run_events({layer: [PauliEvent(qubit, "X")]}, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_bb_hetero(2, "qutrit", [1, 0, 1, 1]),
        lambda: build_bb_hetero(2, "qubit", [1, 0, 1, 1]),
        lambda: build_uniform_bb(2, "qutrit", [0, 1, 1, 0], distance=2, round_trip=True),
        lambda: build_walker(2, [1, 1, 0, 0]),
    ],
)
def test_batch_and_reference_agree_statistically(build):
    """Same noise model, independent streams: means agree within 3 sigma."""
    sched = build()
    noise = NoiseModel(PARAMS, sched.profile, mode="aggregate")
    trials = 3000
    batch = 1.0 - run_fidelities(sched, noise, trials, seed=5, batch_size=256)
    ref = np.array(
        [
            1.0 - reference_fidelity(sched, sampled_events(sched, noise, trajectory_rng(99, i)))
            for i in range(trials)
        ]
    )
    se = np.sqrt(batch.var(ddof=1) / trials + ref.var(ddof=1) / trials)
    assert abs(batch.mean() - ref.mean()) < 3 * se


def test_batch_sizes_partition_but_preserve_determinism():
    sched = build_bb_hetero(2, "qutrit", [0, 1, 0, 0])
    noise = NoiseModel(PARAMS, sched.profile, mode="aggregate")
    a = run_fidelities(sched, noise, 700, seed=3, batch_size=512)
    b = run_fidelities(sched, noise, 700, seed=3, batch_size=512)
    assert np.array_equal(a, b)


def test_small_branch_counts_unaligned_words():
    # n=2 gives 4 branches: trial spans are sub-word; exercise that path
    sched = build_bb_hetero(2, "qutrit", [1, 1, 1, 1])
    noise = NoiseModel(SurfaceParams(0.03, 0.4), sched.profile, mode="aggregate")
    fids = run_fidelities(sched, noise, 333, seed=8, batch_size=50)
    assert fids.shape == (333,)
    assert np.all((0.0 <= fids) & (fids <= 1.0))


def _spy_passes(monkeypatch):
    """Record the batch sizes of every `_run_sampled` call."""
    passes = []
    run_sampled = PlaneEngine._run_sampled

    def spy(self, batches):
        passes.append([n for _, n in batches])
        return run_sampled(self, batches)

    monkeypatch.setattr(PlaneEngine, "_run_sampled", spy)
    return passes


def _assert_budget_grouping(eng, passes):
    """Each pass's plane, every drawn trial joined, stays within
    `_PASS_BYTES` unless the pass is a single batch, and the next batch
    would overflow it."""
    for p, following in zip(passes, passes[1:] + [[]]):
        assert len(p) == 1 or eng._pass_bytes(sum(p)) <= _PASS_BYTES
        if following:
            assert eng._pass_bytes(sum(p) + following[0]) > _PASS_BYTES


@pytest.mark.parametrize("n", range(1, 8))
def test_fused_passes_equal_one_run_per_batch(n, monkeypatch):
    """`run_fidelities` runs consecutive batches in shared plane passes and
    still equals, bit for bit, one `PlaneEngine.run` per batch on the same
    streams. A pass stays within the byte budget unless it is one batch,
    and takes on the next batch whenever that stays within it. n=1..7
    crosses the sub-word (B < 64) and the aligned trial spans; the cases
    give a partial last batch, a pass whose column count is no multiple of
    64, and, at n=7, batches that fill the budget. A qutrit tree at
    epsilon'=0.3 splits off its uniform windows from n=4 on, so there each
    batch also draws its lazy window parities from its own stream."""
    passes = _spy_passes(monkeypatch)
    for kind, params in (("qubit", SurfaceParams(0.03, 0.3)), ("qutrit", SurfaceParams(0.3, 0.3))):
        sched = build_ft_hetero(n, kind, _database(n))
        noise = NoiseModel(params, sched.profile)
        # about 2^16 (trial, branch) columns of work per case at every n
        per_pass = (1 << 16) >> n
        eng = PlaneEngine(sched, noise)
        assert bool(eng._windows) == (kind == "qutrit" and n >= 4)
        cases = [(333, 50), (5 * (per_pass // 3 + 1) + 11, per_pass // 3 + 1), (600, 512)]
        expect = {}
        for trials, batch in cases:
            sizes = [min(batch, trials - d) for d in range(0, trials, batch)]
            expect[trials, batch] = sizes, np.concatenate(
                [eng.run(trajectory_rng(9, b), take) for b, take in enumerate(sizes)])

        for trials, batch in cases:
            passes.clear()
            sizes, ref = expect[trials, batch]
            got = run_fidelities(sched, noise, trials, seed=9, batch_size=batch)
            assert got.tobytes() == ref.tobytes(), (n, kind, trials, batch)
            assert [m for p in passes for m in p] == sizes
            _assert_budget_grouping(eng, passes)
            if n == 7 and (trials, batch) == cases[1]:
                assert len(passes) > 1 and max(map(len, passes)) > 1
        assert len(expect[333, 50][0]) == 7


@pytest.mark.parametrize("n, trials, batch, count", [
    (3, 333, 50, 1), (9, 8000, 512, 2), (12, 1300, 1100, 2),
], ids=["one-pass", "split", "over-budget"])
def test_sampled_basis_passes_fill_the_byte_budget(n, trials, batch, count, monkeypatch):
    """Sampled-basis batches share passes by the same byte budget, whose
    reference block holds one column per trial, and each still equals its
    own `PlaneEngine.run` on the same stream. At n=3 every batch fits one
    pass, at n=9 the budget splits them into `count` passes, and at n=12
    the first batch is over the budget on its own and runs alone."""
    sched = build_bb_hetero(n, "qutrit", _database(n))
    noise = NoiseModel(SurfaceParams(0.03, 0.3), sched.profile)
    eng = PlaneEngine(sched, noise, address_mode="basis")
    sizes = [min(batch, trials - d) for d in range(0, trials, batch)]
    ref = np.concatenate([eng.run(trajectory_rng(4, b), m) for b, m in enumerate(sizes)])
    passes = _spy_passes(monkeypatch)
    got = run_fidelities(sched, noise, trials, seed=4, address_mode="basis", batch_size=batch)
    assert got.tobytes() == ref.tobytes()
    assert [m for p in passes for m in p] == sizes
    _assert_budget_grouping(eng, passes)
    assert len(passes) == count
    assert (eng._pass_bytes(batch) > _PASS_BYTES) == (n == 12)


@pytest.mark.parametrize("mode, arch, kind, n, trials", [
    ("superposition", "ft-hetero", "qutrit", 6, 2048),
    ("superposition", "bb-hetero", "qubit", 6, 2048),
    ("basis", "bb-hetero", "qutrit", 9, 8000),
])
def test_multi_batch_planes_stay_within_the_budget(mode, arch, kind, n, trials, monkeypatch):
    """The dense plane that `_run_dense` allocates is the one `_pass_bytes`
    counts for the pass's joined trials, and in a pass of several batches
    it stays within `_PASS_BYTES`, which stays at 5 MiB: a larger budget
    raises peak memory, and must say so here. 512-trial batches at p'=0.1,
    round trip: ft-hetero qutrit n=6 takes two batches per pass, 4.85 MiB
    when every trial joins, bb-hetero qubit n=6 all four, and sampled-basis
    bb-hetero qutrit n=9 thirteen and then three."""
    sched = build_schedule(arch, n, kind, _database(n), round_trip=True)
    noise = NoiseModel(SurfaceParams(0.03, 0.1), sched.profile)
    eng = PlaneEngine(sched, noise, address_mode=mode)
    planes = []
    run_dense, bad_branches = PlaneEngine._run_dense, PlaneEngine._bad_branches

    def spy_dense(self, cell, trial, bounds, firsts, order, *rest):
        planes.append([order.size, 0])
        return run_dense(self, cell, trial, bounds, firsts, order, *rest)

    def spy_bad(self, plane, *rest):
        planes[-1][1] = plane.nbytes
        return bad_branches(self, plane, *rest)

    monkeypatch.setattr(PlaneEngine, "_run_dense", spy_dense)
    monkeypatch.setattr(PlaneEngine, "_bad_branches", spy_bad)
    passes = _spy_passes(monkeypatch)
    sizes = [min(512, trials - d) for d in range(0, trials, 512)]
    eng.run_batches((trajectory_rng(3, b), m) for b, m in enumerate(sizes))
    assert len(planes) == len(passes) and any(len(p) > 1 for p in passes)
    for p, (joined, nbytes) in zip(passes, planes):
        assert nbytes == eng._pass_bytes(joined) and joined <= sum(p)
        if len(p) > 1:
            assert nbytes <= _PASS_BYTES <= 5 << 20
    assert max(nbytes for _, nbytes in planes) > _PASS_BYTES // 4


def test_basis_pass_spans_only_the_joined_trials(monkeypatch):
    """A sampled-basis pass builds its reference block with one `_span`
    call over the addresses of only the trials that see an event, in join
    order: by first event layer, ties in trial order. The superposition
    span is never built, and every trial without an event comes back
    exactly 1.0."""
    spans = []
    span = PlaneEngine._span

    def spy(self, addresses):
        spans.append(np.array(addresses))
        return span(self, addresses)

    monkeypatch.setattr(PlaneEngine, "_span", spy)
    n, n_trials = 4, 200
    sched = build_bb_hetero(n, "qutrit", _database(n))
    noise = NoiseModel(SurfaceParams(0.03, 0.05), sched.profile)
    eng = PlaneEngine(sched, noise, address_mode="basis")
    fids = eng.run(trajectory_rng(5, 0), n_trials)
    rng = trajectory_rng(5, 0)
    addresses = rng.integers(0, 1 << n, size=n_trials)
    key, _, trial = _events_by_key(eng, rng, n_trials)
    first = np.full(n_trials, len(sched.layers))
    np.minimum.at(first, trial, key // 2)
    joined = np.flatnonzero(first < len(sched.layers))
    order = joined[np.argsort(first[joined], kind="stable")]
    assert 0 < order.size < n_trials and np.unique(first[order]).size > 2
    assert len(spans) == 1 and spans[0].tolist() == addresses[order].tolist()
    assert "_superposition" not in vars(eng)
    quiet = np.ones(n_trials, dtype=bool)
    quiet[order] = False
    assert np.all(fids[quiet] == 1.0) and np.any(fids[order] < 1.0)


def test_rounds_mode_rejected():
    """Noise is one net parity flip per qubit, kind and phase ("aggregate");
    a model asking for round-by-round draws is refused, and the default
    model runs on the engine."""
    sched = build_bb_hetero(2, "qutrit", [0, 1] * 2)
    with pytest.raises(ValueError, match="aggregate"):
        NoiseModel(PARAMS, sched.profile, mode="rounds")
    fids = run_fidelities(sched, NoiseModel(PARAMS, sched.profile), 4, seed=0)
    assert fids.shape == (4,)


def test_sampled_basis_mode():
    """Omitting the address samples a fresh one per trial (the mode used
    past the superposition ceiling; phase errors are undercounted)."""
    sched = build_bb_hetero(3, "qutrit", [0, 1] * 4)
    eng = PlaneEngine(sched, None, address_mode="basis")
    assert np.all(eng.run(trajectory_rng(1, 0), 17) == 1.0)
    noise = NoiseModel(SurfaceParams(0.03, 0.3), sched.profile, mode="aggregate")
    noisy = PlaneEngine(sched, noise, address_mode="basis")
    fids = noisy.run(trajectory_rng(1, 0), 400)
    assert set(np.unique(fids)) <= {0.0, 1.0}
    assert 0.0 < fids.mean() < 1.0
    again = PlaneEngine(sched, noise, address_mode="basis").run(trajectory_rng(1, 0), 400)
    assert np.array_equal(fids, again)


def test_sampled_basis_past_superposition_ceiling():
    sched = build_bb_hetero(11, "qubit", [0, 1] * 1024)
    noise = NoiseModel(SurfaceParams(0.03, 0.1), sched.profile, mode="aggregate")
    fids = run_fidelities(
        sched, noise, 64, seed=2, address_mode="basis", batch_size=64
    )
    assert fids.shape == (64,)
    assert np.all((fids == 0.0) | (fids == 1.0))


VARIANTS = (
    ("uniform-bb", "qutrit"), ("ft-hetero", "qutrit"), ("bb-hetero", "qutrit"),
    ("uniform-bb", "qubit"), ("ft-hetero", "qubit"), ("bb-hetero", "qubit"),
    ("walker", "qutrit"),
)


def _database(n):
    return np.random.default_rng(n).integers(0, 2, 1 << n).tolist()


def _pack_bits_loop(bits):
    """Bit-by-bit definition: bit i of word w is bits[64w + i]."""
    n = bits.shape[-1]
    words = np.zeros(bits.shape[:-1] + ((n + 63) // 64,), dtype=np.uint64)
    for idx in np.ndindex(bits.shape):
        if bits[idx]:
            words[idx[:-1] + (idx[-1] // 64,)] |= np.uint64(1) << np.uint64(idx[-1] % 64)
    return words


def _trial_spans_loop(n_trials, B):
    """Word-by-word definition of the per-trial spans; B is a power of two,
    so a trial touches max(B // 64, 1) words."""
    per = max(B // 64, 1)
    idx = np.zeros((n_trials, per), dtype=np.int64)
    msk = np.zeros((n_trials, per), dtype=np.uint64)
    for t in range(n_trials):
        start, end = t * B, (t + 1) * B
        for i, w in enumerate(range(start >> 6, ((end - 1) >> 6) + 1)):
            lo = max(start, w * 64) - w * 64
            hi = min(end, (w + 1) * 64) - w * 64
            idx[t, i] = w
            msk[t, i] = ((1 << (hi - lo)) - 1) << lo
    return idx, msk


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=200)))
@example(np.ones(65, dtype=bool))
@example(np.ones((3, 127), dtype=bool))
def test_pack_bits_lsb_equals_bit_by_bit_definition(bits):
    words = _pack_bits_lsb(bits)
    assert words.dtype == np.uint64
    assert np.array_equal(words, _pack_bits_loop(bits))
    if bits.ndim == 1:
        assert np.array_equal(_unpack_bits_lsb(words, bits.size), bits)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(bool, st.tuples(st.integers(0, 5), st.integers(1, 200))))
@example(np.ones((2, 64), dtype=bool))
@example(np.ones((1, 3), dtype=bool))
def test_pack_span_equals_tiled_dense_packing(bits):
    """`_pack_span` of the set (row, column) pairs of a (rows, C) bit
    matrix equals the matrix's dense packing, tiled like one span of C
    columns: C/64 words, or for C < 64 the C columns 64/C times in one word."""
    height, C = bits.shape
    rows, cols = np.nonzero(bits)
    span = _pack_span(rows, cols, height, C)
    assert span.dtype == np.uint64
    assert np.array_equal(span, _pack_bits_loop(np.tile(bits, (1, max(64 // C, 1)))))


@pytest.mark.parametrize("B", [1, 2, 8, 32, 64, 128, 1024])
@pytest.mark.parametrize("n_trials", [1, 7, 63, 64, 65, 130])
def test_trial_spans_equal_word_by_word_definition(B, n_trials):
    """Flipping the trial unit of slot t, as a pass of B branches applies
    an X event, flips exactly the columns of span t in the word-by-word
    definition, on a plane row and on a (rows, words) plane alike. A slot
    holds B columns, widened to a byte for B = 2, 4 (whose columns
    `_pack_span` tiles), or one column in sampled-basis mode (B = 1),
    where the unit is a byte of 8 slots and the flip the slot's bit."""
    cols = _slot_columns(B)
    assert cols == (B if B in (1, 8, 32, 64, 128, 1024) else 8)
    idx, msk = _trial_spans_loop(n_trials, cols)
    W = (n_trials * cols + 63) // 64
    for shape in ((W,), (3, W)):
        for t in range(n_trials):
            words = np.zeros(shape, dtype=np.uint64)
            units, shift = _trial_units(words, cols)
            unit = t >> shift
            if len(shape) == 2:  # the slot on row 1
                unit += units.shape[0] // 3
            units[unit] ^= (1 << (t & 7)) if shift else ~units.dtype.type(0)
            expect = np.zeros(W, dtype=np.uint64)
            expect[idx[t]] = msk[t]
            row = words if len(shape) == 1 else words[1]
            assert np.array_equal(row, expect), (B, t)
            assert np.count_nonzero(words) == np.count_nonzero(expect)


@pytest.mark.parametrize("B", [2, 4, 8, 16, 32, 64, 128, 256])
def test_uniform_decides_every_unit_shape(B):
    """`_uniform` on every trial unit the engine makes: uint8 to uint64
    units (B = 8..64), rows of two and of four words (B = 128, 256), and
    the tiled bytes of 2- and 4-branch slots. All-zero and all-one units
    are uniform, and flipping any single bit of either makes it mixed; a
    tiled byte is uniform just when its slot's B branch bits agree."""
    cols = _slot_columns(B)
    W = (cols + 63) // 64

    def uniform(words):
        units = _trial_units(words, cols)[0]
        return _uniform(units.reshape(units.shape[0], -1))

    zero = np.zeros(W, dtype=np.uint64)
    assert uniform(zero).all() and uniform(~zero).all()
    for b in range(cols):
        bits = np.zeros(64 * W, dtype=bool)
        bits[b] = True
        for words in (_pack_bits_lsb(bits), ~_pack_bits_lsb(bits)):
            assert not uniform(words)[0], b
    if B < 8:  # every pattern of the slot's branch bits, as `_pack_span` tiles it
        for pattern in range(1 << B):
            cols_set = np.flatnonzero([(pattern >> k) & 1 for k in range(B)])
            span = _pack_span(np.zeros(cols_set.size, dtype=np.int64), cols_set, 1, B)
            assert uniform(span[0]).tolist() == [pattern in (0, (1 << B) - 1)] * 8, pattern


@pytest.mark.parametrize("arch,kind", VARIANTS)
@pytest.mark.parametrize("round_trip", [None, True, False])
def test_reference_plane_pass_matches_ideal_word(arch, kind, round_trip, monkeypatch):
    """Each branch's ideal bits, as the readout reads them off a pass's
    reference block after the last layer, equal the bits of the
    per-address oracle `Schedule.ideal_word(a)` at `output_mask(a)`, and no
    mask qubit is missing or extra. An X event at layer 0 on every trial
    makes the pass simulate its trials through every layer, and the
    reference block sees no event."""
    patterns = []
    ideal_of = PlaneEngine._ideal

    def spy(self, plane, row, readout):
        patterns.append(ideal_of(self, plane, row, readout))
        return patterns[-1]

    monkeypatch.setattr(PlaneEngine, "_ideal", spy)
    for n in range(1, 7):
        sched = build_schedule(arch, n, kind, _database(n), round_trip=round_trip)
        eng = PlaneEngine(sched, None)
        patterns.clear()
        eng.run_events({0: [PauliEvent(0, "X")]}, 3)
        assert len(patterns) == 1
        B = 1 << n
        masks = [set(sched.output_mask(a)) for a in range(B)]
        read_rows, care_rows, _ = eng._superposition[1]
        assert set(read_rows.tolist()) == set().union(*masks)
        span = care_rows.shape[1] * 64
        assert patterns[0].shape == care_rows.shape
        for q, care, ideal in zip(read_rows, care_rows, patterns[0]):
            care, ideal = _unpack_bits_lsb(care, span), _unpack_bits_lsb(ideal, span)
            for col in range(span):
                a = col % B
                expect_care = q in masks[a]
                assert care[col] == expect_care, (n, q, a)
                expect = (sched.ideal_word(a) >> int(q)) & 1 if expect_care else 0
                assert ideal[col] == expect, (n, q, a)


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_each_trial_equals_word_oracle_on_its_own_events(arch, kind):
    """Trials join a pass at their first X layer, in that order, and come
    back in trial order: each trial's fidelity from one seeded pass
    equals, exactly, the word-by-word oracle run on that trial's own
    events, decoded from the same stream. The trials cover no event at all
    and first events at several layers."""
    quiet, first_layers = 0, 0
    for n in (2, 3, 4):
        sched = build_schedule(arch, n, kind, _database(n), round_trip=n != 3)
        noise = NoiseModel(SurfaceParams(0.03, 0.2), sched.profile)
        eng = PlaneEngine(sched, noise)
        n_trials = 60
        fids = eng.run(trajectory_rng(n, 0), n_trials)
        key, qubit, trial = _events_by_key(eng, trajectory_rng(n, 0), n_trials)
        events = [{} for _ in range(n_trials)]
        # within a layer X flips land before Z phases, as in the engine
        for k, q, t in sorted(zip(key.tolist(), qubit.tolist(), trial.tolist())):
            events[t].setdefault(k // 2, []).append(PauliEvent(q, "XZ"[k % 2]))
        quiet += sum(not e for e in events)
        first_layers = max(first_layers, len({min(e) for e in events if e}))
        for t in range(n_trials):
            assert fids[t] == reference_fidelity(sched, events[t]), (arch, kind, n, t)
    assert quiet > 0 and first_layers > 2, (quiet, first_layers)


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_run_codes_single_faults_equal_word_oracle(arch, kind):
    """One `_run_codes` pass in which trial t sees only its own event,
    `cells[t] * total + t`, over every noise location of the engine's
    classes: each trial's fidelity equals the word-by-word oracle run on
    that one event. n=1..6 cross the trial units (B = 2, 4 widened to a
    byte, uint8 to uint64). The pass runs every location; the oracle
    checks all of them at n=1, 2, an even spread of 48 (all layers, X and
    Z) at n=3, 4 and of 8 at n=5, 6."""
    for n in range(1, 7):
        sched = build_schedule(arch, n, kind, _database(n))
        eng = PlaneEngine(sched, NoiseModel(SurfaceParams(0.03, 0.2), sched.profile))
        cells = np.sort(np.concatenate([c.cells for c in eng._classes]))
        total = cells.size
        fids = eng._run_codes(cells * total + np.arange(total), total)
        assert fids.shape == (total,)
        spread = {3: 48, 4: 48, 5: 8, 6: 8}.get(n, total)
        check = np.linspace(0, total - 1, spread).astype(int)
        nq = sched.qubit_count
        for t in check:
            key, qubit = divmod(int(cells[t]), nq)
            event = {key // 2: [PauliEvent(qubit, "XZ"[key % 2])]}
            assert fids[t] == reference_fidelity(sched, event), (arch, kind, n, key, qubit)
        assert np.any(fids < 1.0) and np.any(fids == 1.0)


def _live_cells(eng):
    """The engine's live X cells and live Z cells, each with its layer."""
    cells = np.sort(np.concatenate([c.cells for c in eng._classes]))
    key = cells // eng.schedule.qubit_count
    return [(cells[key % 2 == k], key[key % 2 == k] // 2) for k in (0, 1)]


def _trial_events(cells, nq):
    """The word oracle's events of one trial from its event cells: X flips
    before Z phases within a layer, as in the engine."""
    events = {}
    for cell in sorted(cells):
        key, qubit = divmod(int(cell), nq)
        events.setdefault(key // 2, []).append(PauliEvent(qubit, "XZ"[key % 2]))
    return events


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_phase_only_trials_never_enter_the_plane(arch, kind, monkeypatch):
    """Trials that see only Z phases, one to three at distinct layers, read
    them off the reference block and never join the plane: no pass reads
    out a plane (`_bad_branches` is never called), and each trial's fidelity
    equals the word-by-word oracle's, n=1..5. Some phases lower it."""
    reads = []
    fidelities = PlaneEngine._bad_branches

    def spy(self, *args):
        reads.append(args)
        return fidelities(self, *args)

    monkeypatch.setattr(PlaneEngine, "_bad_branches", spy)
    rng = np.random.default_rng(5)
    lossy = 0
    for n in range(1, 6):
        sched = build_schedule(arch, n, kind, _database(n))
        eng = PlaneEngine(sched, NoiseModel(PARAMS, sched.profile))
        z_cells, z_layers = _live_cells(eng)[1]
        total = 16
        trials, distinct = [], np.unique(z_layers)
        for _ in range(total):
            layers = rng.choice(distinct, size=min(distinct.size, rng.integers(1, 4)), replace=False)
            trials.append([rng.choice(z_cells[z_layers == li]) for li in layers])
        codes = np.array([c * total + t for t, cells in enumerate(trials) for c in cells])
        fids = eng._run_codes(codes, total)
        assert reads == [], (n, len(reads))
        for t, cells in enumerate(trials):
            expect = reference_fidelity(sched, _trial_events(cells, sched.qubit_count))
            assert fids[t] == expect, (n, t)
        lossy += np.count_nonzero(fids < 1.0)
    assert lossy > 0


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_phases_before_the_first_x_flip_equal_word_oracle(arch, kind, monkeypatch):
    """Trials whose Z phases land two or more layers before their first X
    flip: each trial's fidelity from one `_run_codes` pass equals the
    word-by-word oracle on the trial's own events, n=1..5 on the dense
    plane and n=7 on the deviation-tracked kernel (a spy checks which ran).
    On the dense plane a trial reads those phases off the reference block,
    which its columns equal until its first X flip, and its own slot once
    it has joined at that layer; the deviation kernel reads them as the
    reference XOR a deviation that is still zero. Every sixth trial, or
    the last of a pass too short for one (4 trials at n=7), has phases
    only. The early phases must matter: the same pass without them gives
    other fidelities."""
    calls = _spy_deviation_passes(monkeypatch)
    rng = np.random.default_rng(3)
    moved = 0
    for n in (1, 2, 3, 4, 5, 7):
        sched = build_schedule(arch, n, kind, _database(n))
        nq = sched.qubit_count
        eng = PlaneEngine(sched, NoiseModel(PARAMS, sched.profile))
        (x_cells, x_layers), (z_cells, z_layers) = _live_cells(eng)
        total = {5: 12, 7: 4}.get(n, 24)
        quiet = set(range(5, total, 6)) or {total - 1}
        early, late = [], []
        for t in range(total):
            if t in quiet:  # no X flip: the phases land anywhere
                lx = int(x_layers.max()) + 2
                flips = []
            else:
                lx = rng.choice(np.unique(x_layers[x_layers >= 2]))
                flips = [rng.choice(x_cells[x_layers == lx])]
            before = z_cells[z_layers <= lx - 2]
            early.append(rng.choice(before, size=min(before.size, rng.integers(1, 4)),
                                    replace=False).tolist())
            after = z_cells[z_layers >= lx]
            late.append(flips + (rng.choice(after, size=1).tolist() if after.size else []))
        codes = {}
        for name, trials in (("all", [e + f for e, f in zip(early, late)]), ("late", late)):
            codes[name] = np.array([c * total + t for t, cells in enumerate(trials)
                                    for c in cells], dtype=np.int64)
        calls.clear()
        fids = eng._run_codes(codes["all"].copy(), total)
        assert calls == ([7] if n == 7 else []), n
        for t in range(total):
            expect = reference_fidelity(sched, _trial_events(early[t] + late[t], nq))
            assert fids[t] == expect, (n, t)
        moved += np.count_nonzero(fids != eng._run_codes(codes["late"], total))
    assert moved > 0


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_basis_phases_change_no_fidelity(arch, kind):
    """With one branch per trial a Z phase is global: a sampled-basis pass
    whose codes are all Z phases (on every qubit of the first two noisy
    layers, for trials 1 and 2 of 4) reads every trial as noiseless, and
    the same phases next to a lossy X flip of trial 2 give the fidelities
    of that flip alone. n=3, each trial at its own address."""
    n, total = 3, 4
    sched = build_schedule(arch, n, kind, _database(n))
    nq = sched.qubit_count
    eng = PlaneEngine(sched, NoiseModel(PARAMS, sched.profile), address_mode="basis")
    addresses = np.arange(total)
    x_cells, x_layers = _live_cells(eng)[0]
    z_cells = np.array([(li * 2 + 1) * nq + q for li in np.unique(x_layers)[:2]
                        for q in range(nq)])
    z_codes = np.concatenate([z_cells * total + t for t in (1, 2)])
    assert np.array_equal(eng._run_codes(z_codes.copy(), total, addresses), np.ones(total))
    for x_cell in x_cells:
        x_alone = eng._run_codes(np.array([x_cell * total + 2]), total, addresses)
        if x_alone[2] < 1.0:
            break
    assert x_alone[2] < 1.0
    both = np.append(z_codes, x_cell * total + 2)
    assert np.array_equal(eng._run_codes(both, total, addresses), x_alone)


def _basis_trials_for_guard(eng):
    """Sampled-basis trials enough that a pass of them is all noiseless, or
    all lossy, with chance below 1e-6.

    With every cell's net flip probability q_j, a trial is noiseless with
    chance p0 = prod_j (1 - q_j), and lossy with chance at least p0 times
    the mean over addresses of sum_j q_j over the cells whose single fault
    alone makes that address lossy (one `_run_codes` pass of every
    (address, cell) pair): a trial whose one event is such a fault is
    lossy. N trials miss either kind with chance below (1 - p)^N for the
    smaller bound p."""
    cells = np.concatenate([c.cells for c in eng._classes])
    q = np.concatenate([np.full(c.slots, c.q) for c in eng._classes])
    A = 1 << eng.schedule.n
    total = A * cells.size
    fids = eng._run_codes(np.tile(cells, A) * total + np.arange(total), total,
                          np.repeat(np.arange(A), cells.size))
    p0 = math.exp(np.log1p(-q).sum())
    lossy = p0 * ((fids < 1.0).reshape(A, -1) * q).sum(axis=1).mean()
    return math.ceil(math.log(1e-6) / math.log1p(-min(p0, lossy)))


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_sampled_basis_trials_equal_per_address_oracle(arch, kind):
    """Each sampled-basis trial's fidelity from one seeded pass equals the
    word-by-word oracle on the trial's own address and events, decoded
    from the same stream. Trials share plane bytes eight at a time, and at
    this rate many share a (layer, qubit) X flip with a neighbour. The
    pass is sized (`_basis_trials_for_guard`) so that its mean is strictly
    between 0 and 1 but with chance below 1e-6."""
    for n in (3, 4):
        sched = build_schedule(arch, n, kind, _database(n), round_trip=n == 3)
        noise = NoiseModel(SurfaceParams(0.03, 0.2), sched.profile)
        eng = PlaneEngine(sched, noise, address_mode="basis")
        n_trials = _basis_trials_for_guard(eng)
        fids = eng.run(trajectory_rng(n, 1), n_trials)
        rng = trajectory_rng(n, 1)
        addresses = rng.integers(0, 1 << n, size=n_trials).tolist()
        key, qubit, trial = _events_by_key(eng, rng, n_trials)
        events = [{} for _ in range(n_trials)]
        for k, q, t in sorted(zip(key.tolist(), qubit.tolist(), trial.tolist())):
            events[t].setdefault(k // 2, []).append(PauliEvent(q, "XZ"[k % 2]))
        for t in range(n_trials):
            expect = reference_fidelity(sched, events[t], addresses=[addresses[t]])
            assert fids[t] == expect, (arch, kind, n, t)
        assert 0.0 < fids.mean() < 1.0


@pytest.mark.parametrize("arch,kind", VARIANTS)
@pytest.mark.parametrize("chunk", [1, 1 << 40], ids=["gate", "group"])
def test_grouped_layer_kernel_equals_apply_to_word(arch, kind, chunk, monkeypatch):
    """Every compiled layer, run by `_gate_pass` on a plane of random
    columns, equals `Gate.apply_to_word` on each column's word, n=1..5.
    The layer reads each logical qubit at its physical row before the
    layer and leaves it at the row after it, and a word past the active
    prefix stays as it was. A chunk of one word runs one gate per step,
    and a huge one whole polarity groups."""
    monkeypatch.setattr("hetqram.engine._GATE_CHUNK", chunk)
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        sched = build_schedule(arch, n, kind, _database(n))
        nq = sched.qubit_count
        layers, maps = PlaneEngine(sched, None)._compile(set(range(len(sched.layers))))
        before = np.arange(nq)
        for li, layer in enumerate(sched.layers):
            bits = rng.integers(0, 2, size=(nq, 64)).astype(bool)
            plane = rng.integers(0, 2**63, size=(nq, 2), dtype=np.uint64)
            past = plane[:, 1].copy()
            plane[before, :1] = _pack_bits_lsb(bits)
            _gate_pass(layers[li], plane, 1)
            words = [int("".join("1" if b else "0" for b in col[::-1]), 2) for col in bits.T]
            for gate in layer.gates:
                words = [gate.apply_to_word(w) for w in words]
            after = maps[li]
            expect = _pack_bits_lsb([[(w >> q) & 1 for w in words] for q in range(nq)])
            assert np.array_equal(plane[after, :1], expect), (n, li)
            assert np.array_equal(plane[:, 1], past)
            before = after


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_compile_equals_reference_compile(arch, kind):
    """The table compile equals the gate-by-gate reference compile
    (`tests/compile_oracle.py`) for n=1..6 under both protocols: the same
    row maps after every kept layer, the same inverts, and the same set
    of controlled-swap rows for each polarity pattern."""
    for n in range(1, 7):
        for round_trip in [None] if arch == "walker" else [True, False]:
            sched = build_schedule(arch, n, kind, _database(n), round_trip=round_trip)
            keep = set(range(0, len(sched.layers), 3)) | {len(sched.layers) - 1}
            layers, maps = PlaneEngine(sched, None)._compile(keep)
            want_layers, want_maps = reference_compile(sched, keep)
            assert maps.keys() == want_maps.keys()
            for li in keep:
                assert np.array_equal(maps[li], want_maps[li]), (n, round_trip, li)
            for li, ((groups, inverts), (want_groups, want_inverts)) in enumerate(
                    zip(layers, want_layers, strict=True)):
                assert inverts.dtype == np.int64
                assert inverts.tolist() == want_inverts, (n, round_trip, li)
                got = {}
                for rows, pols in groups:
                    assert rows.dtype == np.int64 and rows.shape[0] == 2 + len(pols)
                    got.setdefault(tuple(pols), set()).update(map(tuple, rows.T.tolist()))
                want = {pols: set(rows) for pols, rows in want_groups.items()}
                assert got == want, (n, round_trip, li)


def _spy_deviation_passes(monkeypatch):
    """Count the passes that take the deviation-tracked kernel."""
    calls = []
    run = PlaneEngine._run_deviations

    def spy(self, *args):
        calls.append(self.schedule.n)
        return run(self, *args)

    monkeypatch.setattr(PlaneEngine, "_run_deviations", spy)
    return calls


def _spy_store_growth(monkeypatch):
    """Count the times a deviation store doubles."""
    grows = []
    grow = _DeviationStore._grow

    def spy(self, live):
        grows.append(live)
        return grow(self, live)

    monkeypatch.setattr(_DeviationStore, "_grow", spy)
    return grows


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_deviation_kernel_equals_dense_kernel(arch, kind, monkeypatch):
    """The deviation-tracked pass and the dense plane pass give the same
    fidelities, bit for bit, on the same sampled event codes: n=7 and 8
    (trial spans of two and four plane words), both protocols, p'=0.01
    and 0.1. A limit of 0 events per row forces the dense kernel and an
    infinite one the deviation kernel, and a spy checks that the deviation
    kernel ran on exactly the passes that saw an X flip: a pass with no
    joined trial is dense. At p'=0.1 the deviation store starts with its
    zero row alone, so a second spy checks that every pass with an X
    event, which makes a pair deviate, grew it."""
    calls = _spy_deviation_passes(monkeypatch)
    grows = _spy_store_growth(monkeypatch)
    n_trials, noisy, grown = 128, 0, 0
    for n in (7, 8):
        for round_trip in (True, False):
            sched = build_schedule(arch, n, kind, _database(n), round_trip=round_trip)
            for p_prime, rows in ((0.01, _DEVIATION_ROWS), (0.1, 1)):
                monkeypatch.setattr("hetqram.engine._DEVIATION_ROWS", rows)
                eng = PlaneEngine(sched, NoiseModel(SurfaceParams(0.03, p_prime), sched.profile))
                codes = _sampled_codes(eng, trajectory_rng(n, 0), n_trials)
                flips = np.any(codes // (n_trials * sched.qubit_count) % 2 == 0)
                fids = {}
                for limit in (0.0, math.inf):
                    monkeypatch.setattr("hetqram.engine._DEVIATION_EVENTS_PER_ROW", limit)
                    calls.clear()
                    grows.clear()
                    fids[limit] = eng._run_codes(codes.copy(), n_trials)
                    assert len(calls) == (limit > 0 and flips)
                    if calls and p_prime == 0.1:
                        assert bool(grows) == flips, (n, round_trip)
                        grown += flips
                assert fids[0.0].tobytes() == fids[math.inf].tobytes(), (n, round_trip, p_prime)
                noisy += np.any(fids[0.0] < 1.0)
    assert noisy >= 4 and grown >= 1


def test_deviation_pass_memory_follows_the_deviating_pairs(monkeypatch):
    """A light deviation-tracked pass stores only the (row, trial) pairs
    that deviate: one pass of 512 trials of bb-hetero qutrit at n=9,
    p'=0.01, peaks under tracemalloc below a quarter of a dense uint64
    deviation array of qubits * joined trials * span words."""
    calls = _spy_deviation_passes(monkeypatch)
    n, n_trials = 9, 512
    sched = build_schedule("bb-hetero", n, "qutrit", _database(n), round_trip=False)
    eng = PlaneEngine(sched, NoiseModel(SurfaceParams(0.03, 0.01), sched.profile))
    codes = _sampled_codes(eng, trajectory_rng(n, 0), n_trials)
    joined = np.unique(codes % n_trials).size
    eng._prepare()
    block = eng._superposition[0]
    tracemalloc.start()
    try:
        fids = eng._run_codes(codes, n_trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [n]
    assert np.any(fids < 1.0)
    dense = sched.qubit_count * joined * block.shape[1] * 8
    assert peak < dense / 4, (peak, dense)


def test_deviation_single_faults_equal_word_oracle(monkeypatch):
    """A single-fault pass at n=7 takes the deviation-tracked kernel (one
    event per joined trial is far below its limit), and each trial's
    fidelity equals the word-by-word oracle run on its one event: an even
    spread of 48 of the noise locations of bb-hetero qubit, X and Z."""
    calls = _spy_deviation_passes(monkeypatch)
    sched = build_schedule("bb-hetero", 7, "qubit", _database(7))
    eng = PlaneEngine(sched, NoiseModel(SurfaceParams(0.03, 0.2), sched.profile))
    cells = np.sort(np.concatenate([c.cells for c in eng._classes]))
    cells = cells[np.linspace(0, cells.size - 1, 48).astype(int)]
    total = cells.size
    fids = eng._run_codes(cells * total + np.arange(total), total)
    assert calls == [7]
    nq = sched.qubit_count
    kinds = set()
    for t, cell in enumerate(cells.tolist()):
        key, qubit = divmod(cell, nq)
        kinds.add("XZ"[key % 2])
        event = {key // 2: [PauliEvent(qubit, "XZ"[key % 2])]}
        assert fids[t] == reference_fidelity(sched, event), (key, qubit)
    assert kinds == {"X", "Z"}
    assert np.any(fids < 1.0) and np.any(fids == 1.0)


def basis_golden_fidelities() -> dict[str, str]:
    """Basis-mode fidelities at a fixed seed for every architecture and
    router kind, n=3..6, both protocols, 300 trials each, as packed hex bit
    strings keyed `arch/kind/n=N/rt=on|off`: the contents of
    tests/data/basis_golden.json, which `tests/regen_goldens.py` rewrites."""
    got = {}
    for arch, kind in VARIANTS:
        for n in range(3, 7):
            for rt in (True, False):
                sched = build_schedule(arch, n, kind, _database(n), round_trip=rt)
                noise = NoiseModel(SurfaceParams(0.03, 0.2), sched.profile, mode="aggregate")
                fids = run_fidelities(sched, noise, 300, seed=13, address_mode="basis",
                                      batch_size=128)
                assert set(np.unique(fids)) <= {0.0, 1.0}
                key = f"{arch}/{kind}/n={n}/rt={'on' if rt else 'off'}"
                got[key] = np.packbits(fids == 1.0).tobytes().hex()
    return got


def test_sampled_basis_fidelities_unchanged():
    """Basis-mode fidelities (`basis_golden_fidelities`) equal the golden
    file bit for bit. The data were written by the engine that draws each
    batch's noise once per flip-probability class by geometric gaps over
    the live cells only; a change to the readout or the reference must
    reproduce them on the same addresses and noise. A change that alters
    the RNG draw order on purpose regenerates tests/data/basis_golden.json
    with `tests/regen_goldens.py` and says why."""
    golden = json.loads((Path(__file__).parent / "data" / "basis_golden.json").read_text())
    assert basis_golden_fidelities() == golden


def _windows_loop(sched):
    """Loop definition of the engine's row windows, from `Layer.gates` and
    `Gate.apply_to_word` alone: after each layer, for each logical qubit
    b, `(opening, row, uniform)`. `row` is b's plane row, which follows its
    data through plain swaps; `opening` is the last layer so far in which
    that row was an operand of a controlled swap (-1 for none), a control
    touch opening nothing; `uniform` says whether every address's
    noiseless word holds one bit at b."""
    nq = sched.qubit_count
    row, opened = list(range(nq)), [-1] * nq
    words = [sched.initial_word(a) for a in range(1 << sched.n)]
    out = []
    for li, layer in enumerate(sched.layers):
        for g in layer.gates:
            if g.controls:
                for b in g.operands:
                    opened[row[b]] = li
            elif g.kind is GateKind.SWAP:
                a, b = g.operands
                row[a], row[b] = row[b], row[a]
            words = [g.apply_to_word(w) for w in words]
        ones, zeros = functools.reduce(operator.and_, words), functools.reduce(operator.or_, words)
        out.append([(opened[row[b]], row[b], (ones >> b & 1) == (zeros >> b & 1))
                    for b in range(nq)])
    return out


def _noise_classes_loop(sched, noise, basis=False):
    """Loop definition of the engine's noise classes and lazy windows.

    The classes: per distinct net flip probability q, in order of first
    appearance over (step, live group, X before Z), the live event cells
    (layer * 2 + is_z) * qubits + qubit, in the engine's slot order: each
    group's qubits by descending X horizon, ties in group order, and only
    those whose events can change a fidelity (`_global_phase_events`).

    A superposition engine whose live Z cells expect at least
    `_SPLIT_Z_HITS` hits per trial takes out the Z cells whose window
    (`_windows_loop`) is uniform: it drops those of a window open from the
    start, and a window that opens at a swap and whose cells expect at
    least `_WINDOW_Z_HITS` flips keeps their parity (1 - prod(1 - 2q)) / 2.
    Returns the classes and those windows, `{(opening, row): parity}`.
    """
    nq = sched.qubit_count
    horizon = _x_horizons(sched)
    dead = _global_phase_events(sched, basis)
    segments = []
    for step in NoisePlan(sched, noise).steps:
        for g in step.groups:
            qubits = sorted(g.qubits.tolist(), key=lambda b: -horizon[b])
            for is_z, p in ((0, g.px), (1, g.pz)):
                q = net_flip_probability(p, step.rounds)
                cells = [b for b in qubits if not dead(step.layer * 2 + is_z, b)]
                if q > 0.0 and cells:
                    segments.append((q, step.layer, is_z, cells))
    taken, lazy = set(), {}
    if sum(q * len(cells) for q, _, is_z, cells in segments if is_z) >= engine._SPLIT_Z_HITS:
        state, windows = _windows_loop(sched), {}
        for q, li, is_z, cells in segments:
            for b in cells if is_z else ():
                opening, row, uniform = state[li][b]
                if uniform and opening < 0:
                    taken.add((li, b))
                elif uniform:
                    windows.setdefault((opening, row), []).append((li, b, q))
        for window, members in windows.items():
            if sum(q for _, _, q in members) >= engine._WINDOW_Z_HITS:
                taken |= {(li, b) for li, b, _ in members}
                lazy[window] = (1 - math.prod(1 - 2 * q for _, _, q in members)) / 2
    classes: dict[float, list[int]] = {}
    for q, li, is_z, cells in segments:
        kept = [(li * 2 + is_z) * nq + b for b in cells if not (is_z and (li, b) in taken)]
        if kept:
            classes.setdefault(q, []).extend(kept)
    return list(classes.items()), lazy


def _lazy_windows(eng):
    """The engine's lazy windows in its own order, as `(opening, row)`,
    and their parities."""
    keys = [(li, row) for li, (lo, rows) in eng._windows.items()
            for row in rows.tolist()]
    return keys, eng._window_q.tolist()


def test_noise_class_cells_built_on_first_hit():
    """A class builds its cells on the first batch that hits it: after a
    batch that draws no event, no class has built any, and after a noisy
    batch exactly the classes it drew a hit in have, the same draws
    replayed from the same seed. Every event is a cell of a built class."""
    sched = build_bb_hetero(3, "qutrit", _database(3))
    quiet = PlaneEngine(sched, NoiseModel(SurfaceParams(0.03, 1e-9), sched.profile))
    assert np.all(quiet.run(trajectory_rng(0, 0), 64) == 1.0)
    assert all(c._cells is None for c in quiet._classes)
    eng = PlaneEngine(sched, NoiseModel(SurfaceParams(0.03, 0.1), sched.profile))
    key, qubit, _ = _events_by_key(eng, trajectory_rng(1, 0), 16)
    hit = set((key * sched.qubit_count + qubit).tolist())
    built = [c._cells is not None for c in eng._classes]
    assert any(built) and not all(built)
    rng = trajectory_rng(1, 0)
    assert built == [_bernoulli_hits(rng, c.slots * 16, c.q).size > 0 for c in eng._classes]
    assert hit and hit <= set().union(*(c.cells.tolist() for c, b in zip(eng._classes, built)
                                        if b))


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_noise_classes_equal_loop_definition(arch, kind):
    """The engine's vectorized class table holds the loop's classes, in the
    same order and with the same live cells in the same order, in both
    address modes: both orders fix which slot each geometric draw lands
    on. The lazy windows are the loop's too, in (opening layer, row)
    order, the order of their draws, with the same parities; the hetero
    trees' superposition engines at n=5 with Z noise split."""
    splits = 0
    for n in (1, 3, 5):
        sched = build_schedule(arch, n, kind, _database(n), round_trip=n != 3)
        for channel in ("xz", "x", "z"):
            noise = NoiseModel(SurfaceParams(0.03, 0.3), sched.profile, channel=channel)
            for basis in (False, True):
                eng = PlaneEngine(sched, noise, address_mode="basis" if basis else "superposition")
                assert all(c._cells is None for c in eng._classes)
                got = [(c.q, c.cells.tolist()) for c in eng._classes]
                assert all(c.cells.dtype == np.int64 and c.cells.size == c.slots
                           for c in eng._classes)
                want, windows = _noise_classes_loop(sched, noise, basis)
                assert got == want, (arch, kind, n, channel, basis)
                keys, parities = _lazy_windows(eng)
                assert keys == sorted(windows), (arch, kind, n, channel, basis)
                assert parities == pytest.approx([windows[k] for k in keys], rel=1e-12)
                splits += bool(windows)
    assert splits == (2 if "hetero" in arch else 0)


def _plan_cells(sched, noise):
    """Every (cell, q) of the plan's noise locations with a positive q,
    cell = (layer * 2 + is_z) * qubits + qubit, dead or live."""
    nq = sched.qubit_count
    return [((step.layer * 2 + is_z) * nq + b, q)
            for step in NoisePlan(sched, noise).steps for g in step.groups
            for is_z, q in ((0, net_flip_probability(g.px, step.rounds)),
                            (1, net_flip_probability(g.pz, step.rounds)))
            if q > 0.0 for b in g.qubits.tolist()]


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_noise_class_cells_are_the_live_cells(arch, kind):
    """The classes' cells are the plan's live cells, each once and with its
    own q: every location except the X flips past their qubit's last gate
    on qubits the readout does not read, and in sampled-basis mode except
    every Z phase. The engine keeps row maps after exactly the layers of
    those cells."""
    for n in (1, 3, 4):
        for rt in (True, False):
            sched = build_schedule(arch, n, kind, _database(n), round_trip=rt)
            noise = NoiseModel(PARAMS, sched.profile)
            nq = sched.qubit_count
            for mode in ("superposition", "basis"):
                dead = _global_phase_events(sched, basis=mode == "basis")
                want = sorted((cell, q) for cell, q in _plan_cells(sched, noise)
                              if not dead(*divmod(cell, nq)))
                eng = PlaneEngine(sched, noise, address_mode=mode)
                got = sorted((cell, c.q) for c in eng._classes for cell in c.cells.tolist())
                assert got == want, (arch, kind, n, rt, mode)
                assert eng._noise_layers == {cell // (2 * nq) for cell, _ in want}


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_dropped_x_events_change_no_fidelity(arch, kind):
    """The X flips the sampler leaves out, exactly the dead cells of the
    loop definition (`_global_phase_events`), only add a global phase: at
    n=1..4, both protocols, random event sets mix live events with X flips
    on those cells, some followed by a Z phase on the same qubit at the
    same or a later layer, and `run_events` gives the same fidelity bit for
    bit with and without those X flips."""
    rng = np.random.default_rng(19)
    cases = phased = lossy = 0
    for n in range(1, 5):
        for rt in (True, False):
            sched = build_schedule(arch, n, kind, _database(n), round_trip=rt)
            noise = NoiseModel(PARAMS, sched.profile)
            eng = PlaneEngine(sched, noise)
            nq, n_layers = sched.qubit_count, len(sched.layers)
            dead = _global_phase_events(sched)
            plan = [cell for cell, _ in _plan_cells(sched, noise)]
            dropped = np.array([cell for cell in plan if dead(*divmod(cell, nq))])
            live = np.concatenate([c.cells for c in eng._classes])
            assert dropped.size and np.all(dropped // nq % 2 == 0)
            # the sampler leaves out exactly these cells
            assert sorted([*live.tolist(), *dropped.tolist()]) == sorted(plan)
            for _ in range(40):
                events, flips = {}, {}
                for cell in rng.choice(live, rng.integers(1, 4)).tolist():
                    key, q = divmod(cell, nq)
                    events.setdefault(key // 2, []).append(PauliEvent(q, "XZ"[key % 2]))
                for cell in rng.choice(dropped, rng.integers(1, 4)).tolist():
                    li, q = divmod(cell, 2 * nq)
                    flips.setdefault(li, []).append(PauliEvent(q, "X"))
                    if rng.random() < 0.5:
                        events.setdefault(int(rng.integers(li, n_layers)), []).append(
                            PauliEvent(q, "Z"))
                        phased += 1
                both = {li: events.get(li, []) + flips.get(li, [])
                        for li in events.keys() | flips.keys()}
                got, expect = eng.run_events(both, 1), eng.run_events(events, 1)
                assert got.tobytes() == expect.tobytes(), (arch, kind, n, rt, events, flips)
                cases += 1
                lossy += expect[0] < 1.0
    assert cases == 320 and phased > 100 and lossy > 50, (phased, lossy)


def _random_flips(rng, nq, layers, count):
    """`count` X flips on random qubits after random layers of `layers`."""
    flips = {}
    for li, b in zip(rng.choice(layers, count).tolist(), rng.integers(0, nq, count).tolist()):
        flips.setdefault(li, []).append(PauliEvent(b, "X"))
    return flips


def _with(events, more):
    """The events of both dicts, layer by layer."""
    return {li: events.get(li, []) + more.get(li, []) for li in events.keys() | more.keys()}


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_z_pair_in_one_window_is_global(arch, kind):
    """Two Z phases on one plane row inside one of its windows
    (`_reference_windows`: a row's window runs from a layer in which it is
    an operand of a controlled swap to the next) flip the signs of all of
    a trial's branches or of none, whatever X flips the trial sees:
    `run_events` gives the same fidelity bit for bit with the pair and
    without it. The pairs span whole windows or random parts of them, next
    to one to three random X flips, at n=2..4 and both protocols. The same
    flips with a pair that straddles a window boundary of the row change
    some fidelities, so the boundaries are where they must be."""
    rng = np.random.default_rng(23)
    cases = lossy = straddles = moved = 0
    for n in (2, 3, 4):
        for rt in (True, False):
            sched = build_schedule(arch, n, kind, _database(n), round_trip=rt)
            eng = PlaneEngine(sched, None)
            nq, n_layers = sched.qubit_count, len(sched.layers)
            window, _, maps, _, _ = eng._reference_windows(np.arange(n_layers))
            logical = np.argsort(maps, axis=1)  # each layer's row -> logical qubit
            for _ in range(24):
                row = int(rng.integers(nq))
                spans = np.flatnonzero(np.diff(window[:, row], prepend=-1, append=-1))
                k = int(rng.integers(spans.size - 1))
                lo, hi = spans[k], spans[k + 1] - 1  # the layers of one window
                if hi == lo:
                    continue
                l1, l2 = (lo, hi) if rng.random() < 0.5 else sorted(rng.choice(
                    np.arange(lo, hi + 1), 2, replace=False).tolist())
                flips = _random_flips(rng, nq, n_layers, int(rng.integers(1, 4)))
                pair = _with({l1: [PauliEvent(int(logical[l1, row]), "Z")]},
                             {l2: [PauliEvent(int(logical[l2, row]), "Z")]})
                expect = eng.run_events(flips, 1)
                assert eng.run_events(_with(flips, pair), 1).tobytes() == expect.tobytes(), (
                    arch, kind, n, rt, row, l1, l2, flips)
                cases += 1
                lossy += expect[0] < 1.0
                if k + 2 < spans.size:  # the last layer here, the first of the next
                    pair = _with({hi: [PauliEvent(int(logical[hi, row]), "Z")]},
                                 {hi + 1: [PauliEvent(int(logical[hi + 1, row]), "Z")]})
                    straddles += 1
                    moved += eng.run_events(_with(flips, pair), 1)[0] != expect[0]
    assert cases > 100 and lossy > 20 and moved > 0, (cases, lossy, straddles, moved)


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_uniform_window_phase_changes_nothing(arch, kind, monkeypatch):
    """A Z phase on a cell that a splitting engine takes out of its classes
    (its row's window is uniform in the reference: dropped, or kept as a
    lazy parity) changes no fidelity of a trial whose row stays uniform:
    through `run_events`, the phase alone reads exactly 1, and next to one
    to three random X flips at later layers it gives, bit for bit, the
    fidelity of those flips alone. n=2..4, both protocols, every engine
    forced to split; the cells are those that the same engine without the
    split draws and this one does not."""
    rng = np.random.default_rng(29)
    cases = lossy = 0
    for n in (2, 3, 4):
        for rt in (True, False):
            sched = build_schedule(arch, n, kind, _database(n), round_trip=rt)
            noise = NoiseModel(SurfaceParams(0.03, 0.3), sched.profile)
            nq, n_layers = sched.qubit_count, len(sched.layers)
            monkeypatch.setattr("hetqram.engine._SPLIT_Z_HITS", math.inf)
            whole = set(_live_cells(PlaneEngine(sched, noise))[1][0].tolist())
            monkeypatch.setattr("hetqram.engine._SPLIT_Z_HITS", 0.0)
            eng = PlaneEngine(sched, noise)
            taken = sorted(whole - set(_live_cells(eng)[1][0].tolist()))
            assert taken and eng._windows.keys() <= set(range(n_layers))
            for cell in rng.choice(taken, min(len(taken), 12), replace=False).tolist():
                li, b = divmod(cell, 2 * nq)
                phase = {li: [PauliEvent(b - nq, "Z")]}
                assert eng.run_events(phase, 1)[0] == 1.0, (arch, kind, n, rt, li, b - nq)
                if li + 1 < n_layers:
                    flips = _random_flips(rng, nq, np.arange(li + 1, n_layers),
                                          int(rng.integers(1, 4)))
                    expect = eng.run_events(flips, 1)
                    assert eng.run_events(_with(flips, phase), 1).tobytes() == expect.tobytes()
                    lossy += expect[0] < 1.0
                cases += 1
    assert cases > 50 and lossy > 5, (cases, lossy)


def test_window_draws_keep_batch_numbers_past_16_bits():
    """`_draw_windows` sends each lazy pair to its own batch's generator
    also in a pass of more than 2^16 batches, whose numbers do not fit 16
    bits (a pass under the byte budget may hold that many one-trial
    batches): synthetic pairs on 65 539 one-trial batches, each batch's
    generator a stub that counts its draws and always fires."""

    class Stub:
        draws = 0

        def random(self, size):
            self.draws += size
            return np.zeros(size)

    eng = PlaneEngine(build_bb_hetero(2, "qutrit", _database(2)), None)
    eng._window_q = np.array([0.5, 0.5])
    total = (1 << 16) + 3
    batches = [(Stub(), 1) for _ in range(total)]
    trial = np.array([0, 2, 65535, 65536, 65538])
    words = np.arange(1, 6, dtype=np.uint8)
    mixed = [(np.array([0, 0, 1, 1, 1]), trial, words)]
    sign = np.zeros(total, dtype=np.uint8)
    eng._draw_windows(mixed, np.arange(total), sign, batches)
    draws = np.array([rng.draws for rng, _ in batches])
    assert np.flatnonzero(draws).tolist() == trial.tolist() and draws.max() == 1
    assert sign[trial].tolist() == words.tolist() and np.count_nonzero(sign) == trial.size


def _spy_lazy_pairs(monkeypatch):
    """Record each `_draw_windows` call's lazy pairs and which fire.

    A record is `(pairs, fired)`: the collected pairs as `(window, join
    index)`, which must come in (opening layer, row, join) order, and the
    fired ones as `(trial, opening layer, row)`, found by replaying each
    batch's uniforms from a copy of its generator, one per pair of its
    trials in that order, against the window's parity."""
    calls = []
    real = PlaneEngine._draw_windows

    def spy(self, mixed, order, sign, batches):
        window, join = (np.concatenate([m[i] for m in mixed]).tolist() for i in (0, 1))
        pairs = list(zip(window, join))
        assert pairs == sorted(pairs)
        opened = [(li, row) for li, (_, rows) in self._windows.items() for row in rows.tolist()]
        streams = [copy.deepcopy(rng) for rng, _ in batches]
        real(self, mixed, order, sign, batches)
        fired, first = [], 0
        for stream, (_, n_trials) in zip(streams, batches):
            for w, j in pairs:
                t = int(order[j])
                if first <= t < first + n_trials and stream.random() < self._window_q[w]:
                    fired.append((t, *opened[w]))
            first += n_trials
        calls.append((pairs, fired))

    monkeypatch.setattr(PlaneEngine, "_draw_windows", spy)
    return calls


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_split_trials_equal_word_oracle(arch, kind, monkeypatch):
    """On an engine forced to split, each trial's fidelity from one seeded
    pass equals, exactly, the word-by-word oracle run on the trial's own
    drawn events plus one Z phase at the opening layer of each lazy window
    whose parity fired for it (replayed from the batch's stream, see
    `_spy_lazy_pairs`). n=2..4, both protocols, p'=0.2: the hetero trees
    fire some windows."""
    monkeypatch.setattr("hetqram.engine._SPLIT_Z_HITS", 0.0)
    calls = _spy_lazy_pairs(monkeypatch)
    fires = 0
    for n in (2, 3, 4):
        for rt in (True, False):
            sched = build_schedule(arch, n, kind, _database(n), round_trip=rt)
            eng = PlaneEngine(sched, NoiseModel(PARAMS, sched.profile))
            n_trials = 40
            calls.clear()
            fids = eng.run(trajectory_rng(n, 1), n_trials)
            key, qubit, trial = _events_by_key(eng, trajectory_rng(n, 1), n_trials)
            events = [{} for _ in range(n_trials)]
            for k, b, t in sorted(zip(key.tolist(), qubit.tolist(), trial.tolist())):
                events[t].setdefault(k // 2, []).append(PauliEvent(b, "XZ"[k % 2]))
            for t, li, row in (f for _, fired in calls for f in fired):
                eng._prepare({li})
                b = int(np.flatnonzero(eng._maps[li] == row)[0])
                events[t].setdefault(li, []).append(PauliEvent(b, "Z"))
                fires += 1
            for t in range(n_trials):
                assert fids[t] == reference_fidelity(sched, events[t]), (arch, kind, n, rt, t)
    assert fires > 0 or "hetero" not in arch


@pytest.mark.parametrize("arch,kind", [("ft-hetero", "qutrit"), ("bb-hetero", "qubit")])
def test_split_kernels_collect_the_same_pairs(arch, kind, monkeypatch):
    """The deviation-tracked pass and the dense plane pass of a splitting
    engine collect the same lazy pairs, in the same order, and give the
    same fidelities bit for bit: n=7 and 8, both protocols, p'=0.01 and
    0.1, one 64-trial batch each, with a limit of 0 events per row forcing
    the dense kernel and an infinite one the deviation kernel."""
    monkeypatch.setattr("hetqram.engine._SPLIT_Z_HITS", 0.0)
    calls = _spy_lazy_pairs(monkeypatch)
    deviations = _spy_deviation_passes(monkeypatch)
    paired = 0
    for n in (7, 8):
        for rt in (True, False):
            sched = build_schedule(arch, n, kind, _database(n), round_trip=rt)
            for p_prime in (0.01, 0.1):
                eng = PlaneEngine(sched, NoiseModel(SurfaceParams(0.03, p_prime), sched.profile))
                got = {}
                for limit in (0.0, math.inf):
                    monkeypatch.setattr("hetqram.engine._DEVIATION_EVENTS_PER_ROW", limit)
                    calls.clear()
                    deviations.clear()
                    fids = eng.run(trajectory_rng(n, 2), 64)
                    assert len(deviations) == (limit > 0)
                    got[limit] = fids.tobytes(), calls[:]
                assert got[0.0] == got[math.inf], (arch, kind, n, rt, p_prime)
                paired += sum(len(pairs) for pairs, _ in got[0.0][1])
    assert paired > 0


def _spy_codes(monkeypatch):
    """Record each `_run_codes` pass's schedule, whether it runs one branch
    per trial (sampled-basis mode), and a copy of its codes and trial
    count, then run it."""
    passes = []
    real = PlaneEngine._run_codes

    def spy(self, codes, total, *rest):
        passes.append((self.schedule, self.branch_count == 1, codes.copy(), total))
        return real(self, codes, total, *rest)

    monkeypatch.setattr(PlaneEngine, "_run_codes", spy)
    return passes


@pytest.mark.parametrize("point", [
    ["--arch", "ft-hetero", "--n", "5", "--round-trip", "on", "--trials", "512"],
    ["--arch", "bb-hetero", "--n", "11", "--address-mode", "basis", "--trials", "256"],
], ids=["superposition", "basis"])
def test_sim_passes_hold_no_global_phase_event(point, monkeypatch, tmp_path):
    """No pass of a `sim` point is given an event that only adds a global
    phase: no X flip on a qubit past its last gate that the readout does
    not read (`Schedule.unread_from`), and in sampled-basis mode no Z
    phase at all."""
    from hetqram.cli import main

    passes = _spy_codes(monkeypatch)
    argv = ["sim", *point, "--routers", "qutrit", "--p-prime", "0.1", "--seed", "7",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert passes
    for sched, basis, codes, total in passes:
        assert basis == ("basis" in point) and codes.size
        nq = sched.qubit_count
        layer, where = np.divmod(codes // total, 2 * nq)
        is_z, qubit = where >= nq, where % nq
        assert not np.any(~is_z & (layer >= sched.unread_from()[qubit]))
        assert is_z.any() != basis


@pytest.mark.parametrize("point", [
    ["--arch", "ft-hetero", "--n", "6", "--round-trip", "on", "--trials", "2048",
     "--batch-size", "512"],
    ["--arch", "bb-hetero", "--n", "9", "--address-mode", "basis", "--trials", "8000",
     "--batch-size", "128"],
], ids=["superposition", "basis"])
def test_sim_passes_spend_every_draw(point, monkeypatch, tmp_path):
    """Every hit the sampler draws is an event of its pass: per `_run_codes`
    pass of a `sim` point, the hits `_bernoulli_hits` returned since the
    previous pass equal the codes the pass receives, so no draw is
    discarded."""
    from hetqram.cli import main

    drawn, passes = [0], []
    bernoulli = _bernoulli_hits

    def spy_hits(rng, slots, q):
        hits = bernoulli(rng, slots, q)
        drawn[0] += hits.size
        return hits

    run = PlaneEngine._run_codes

    def spy_run(self, codes, total, *rest):
        passes.append((drawn[0], codes.size))
        drawn[0] = 0
        return run(self, codes, total, *rest)

    monkeypatch.setattr("hetqram.engine._bernoulli_hits", spy_hits)
    monkeypatch.setattr(PlaneEngine, "_run_codes", spy_run)
    argv = ["sim", *point, "--routers", "qutrit", "--p-prime", "0.1", "--seed", "7",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert len(passes) > 1 and all(codes for _, codes in passes)
    assert [hits for hits, _ in passes] == [codes for _, codes in passes]
