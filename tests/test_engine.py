"""Batched plane engine against the word-by-word oracle and hand-checkable cases."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from compile_oracle import reference_compile
from word_oracle import reference_fidelity, sampled_events

from hetqram.circuits import (
    build_bb_hetero,
    build_ft_hetero,
    build_schedule,
    build_uniform_bb,
    build_walker,
)
from hetqram.engine import (
    _DEVIATION_ROWS,
    _PASS_COLUMNS,
    PlaneEngine,
    _DeviationStore,
    _bernoulli_hits,
    _gate_pass,
    _pack_bits_lsb,
    _pack_span,
    _slot_columns,
    _trial_units,
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


def test_pack_bits_lsb_roundtrip():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=130).astype(bool)
    words = _pack_bits_lsb(bits)
    assert words.shape == (3,)
    for i, b in enumerate(bits):
        assert ((int(words[i // 64]) >> (i % 64)) & 1) == int(b)


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


def test_flip_probability_one_hits_every_live_slot():
    """With a flat rate of 1 on channel x, a phase with an odd number of
    rounds flips every live qubit in every trial (q = 1), and one with an
    even number flips none (q = 0)."""
    sched = build_bb_hetero(2, "qutrit", [1, 0, 0, 1])
    noise = NoiseModel(PARAMS, sched.profile, channel="x", mode="aggregate", flat_rate=1.0)
    eng = PlaneEngine(sched, noise)
    n_trials = 37
    key, qubit, trial = _events_by_key(eng, trajectory_rng(0, 0), n_trials)
    expect = set()
    for step in NoisePlan(sched, noise).steps:
        if step.rounds % 2:
            for g in step.groups:
                expect |= {(step.layer * 2, q, t) for q in g.qubits for t in range(n_trials)}
    assert expect
    got = list(zip(key.tolist(), qubit.tolist(), trial.tolist()))
    assert len(got) == len(set(got))
    assert set(got) == expect


@pytest.mark.parametrize("channel", ["xz", "x", "z"])
def test_sampled_event_frequencies_match_noise_plan(channel):
    """On a mixed-level schedule, each (layer, qubit, X/Z) event's frequency
    over many trials equals the plan's net flip probability within 4 sigma,
    no (layer, qubit, kind, trial) is drawn twice, and no event lands on a
    qubit before its first active layer."""
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
    assert np.count_nonzero(expect) > 10
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


@pytest.mark.parametrize("n", range(1, 8))
def test_fused_passes_equal_one_run_per_batch(n, monkeypatch):
    """`run_fidelities` runs consecutive batches in shared plane passes and
    still equals, bit for bit, one `PlaneEngine.run` per batch on the same
    streams. A pass spans at most max(one batch, _PASS_COLUMNS) columns,
    and takes on the next batch whenever that stays within the limit.
    n=1..7 crosses the sub-word (B < 64) and the aligned trial spans; the
    cases give a partial last batch, a pass whose column count is no
    multiple of 64, and batches that hit the column limit."""
    sched = build_ft_hetero(n, "qubit", _database(n))
    noise = NoiseModel(SurfaceParams(0.03, 0.3), sched.profile)
    B = 1 << n
    per_pass = _PASS_COLUMNS // B
    eng = PlaneEngine(sched, noise)
    cases = [(333, 50), (5 * (per_pass // 3 + 1) + 11, per_pass // 3 + 1), (600, 512)]
    expect = {}
    for trials, batch in cases:
        sizes = [min(batch, trials - d) for d in range(0, trials, batch)]
        expect[trials, batch] = sizes, np.concatenate(
            [eng.run(trajectory_rng(9, b), take) for b, take in enumerate(sizes)])

    passes = _spy_passes(monkeypatch)
    for trials, batch in cases:
        passes.clear()
        sizes, ref = expect[trials, batch]
        got = run_fidelities(sched, noise, trials, seed=9, batch_size=batch)
        assert got.tobytes() == ref.tobytes(), (n, trials, batch)
        assert [m for p in passes for m in p] == sizes
        for p, following in zip(passes, passes[1:] + [[]]):
            assert sum(p) * B <= max(max(p) * B, _PASS_COLUMNS)
            if following:
                assert (sum(p) + following[0]) * B > _PASS_COLUMNS
    assert len(expect[333, 50][0]) == 7


def test_sampled_basis_runs_one_batch_per_pass(monkeypatch):
    """Sampled-basis batches never share a pass, and each still equals its
    own `PlaneEngine.run` on the same stream."""
    sched = build_bb_hetero(3, "qutrit", _database(3))
    noise = NoiseModel(SurfaceParams(0.03, 0.3), sched.profile)
    eng = PlaneEngine(sched, noise, address_mode="basis")
    sizes = [50] * 6 + [33]
    ref = np.concatenate([eng.run(trajectory_rng(4, b), m) for b, m in enumerate(sizes)])
    passes = _spy_passes(monkeypatch)
    got = run_fidelities(sched, noise, 333, seed=4, address_mode="basis", batch_size=50)
    assert got.tobytes() == ref.tobytes()
    assert passes == [[m] for m in sizes]


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


@pytest.mark.parametrize("arch,kind", VARIANTS)
@pytest.mark.parametrize("round_trip", [None, True, False])
def test_reference_plane_pass_matches_ideal_word(arch, kind, round_trip, monkeypatch):
    """Each branch's ideal bits, as the readout reads them off a pass's
    reference block after the last layer, equal the bits of the
    per-address oracle `Schedule.ideal_word(a)` at `output_mask(a)`, and no
    mask qubit is missing or extra. A Z event at layer 0 on every trial
    makes the pass simulate its trials through every layer, and a Z flips
    no bit of the plane."""
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
        eng.run_events({0: [PauliEvent(0, "Z")]}, 3)
        assert len(patterns) == 1
        B = 1 << n
        masks = [set(sched.output_mask(a)) for a in range(B)]
        read_rows, care_rows, _ = eng._readout
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
    """Trials join a pass at their first event layer, in that order, and
    come back in trial order: each trial's fidelity from one seeded pass
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


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_sampled_basis_trials_equal_per_address_oracle(arch, kind):
    """Each sampled-basis trial's fidelity from one seeded pass equals the
    word-by-word oracle on the trial's own address and events, decoded
    from the same stream. Trials share plane bytes eight at a time, and at
    this rate many share a (layer, qubit) X flip with a neighbour."""
    for n in (3, 4):
        sched = build_schedule(arch, n, kind, _database(n), round_trip=n == 3)
        noise = NoiseModel(SurfaceParams(0.03, 0.2), sched.profile)
        eng = PlaneEngine(sched, noise, address_mode="basis")
        n_trials = 150
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
    kernel ran on every pass that saw an event. At p'=0.1 the deviation
    store starts with its zero row alone, so a second spy checks that
    every pass with an X event, which makes a pair deviate, grew it."""
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
                    assert len(calls) == (limit > 0 and codes.size > 0)
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
    tracemalloc.start()
    try:
        fids = eng._run_codes(codes, n_trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [n]
    assert np.any(fids < 1.0)
    dense = sched.qubit_count * joined * eng._init_span.shape[1] * 8
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


def test_sampled_basis_fidelities_unchanged():
    """Basis-mode fidelities at a fixed seed for every architecture and
    router kind, n=3..6, both protocols, as packed hex bit strings. The
    data were written by the engine that draws each batch's noise once per
    flip-probability class by geometric gaps; a change to the readout or
    the reference must reproduce them bit for bit, on the same addresses
    and noise. A change that alters the RNG draw order on purpose
    regenerates tests/data/basis_golden.json and says why."""
    golden = json.loads((Path(__file__).parent / "data" / "basis_golden.json").read_text())
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
    assert got == golden


def _noise_classes_loop(sched, noise):
    """Loop definition of the engine's noise classes: per distinct net flip
    probability q, in order of first appearance over (step, live group,
    X before Z), the event cell (layer * 2 + is_z) * qubits + qubit of each
    slot, group qubit by group qubit."""
    nq = sched.qubit_count
    classes: dict[float, list[int]] = {}
    for step in NoisePlan(sched, noise).steps:
        for g in step.groups:
            for is_z, p in ((0, g.px), (1, g.pz)):
                q = net_flip_probability(p, step.rounds)
                if q > 0.0:
                    cells = classes.setdefault(q, [])
                    cells.extend((step.layer * 2 + is_z) * nq + int(b) for b in g.qubits)
    return list(classes.items())


def test_noise_class_cells_built_on_first_hit():
    """A class builds its cells on the first batch that hits it: after a
    batch that draws no event, no class has built any, and after a noisy
    batch exactly the classes it hit have."""
    sched = build_bb_hetero(3, "qutrit", _database(3))
    quiet = PlaneEngine(sched, NoiseModel(SurfaceParams(0.03, 1e-9), sched.profile))
    assert np.all(quiet.run(trajectory_rng(0, 0), 64) == 1.0)
    assert all(c._cells is None for c in quiet._classes)
    eng = PlaneEngine(sched, NoiseModel(SurfaceParams(0.03, 0.1), sched.profile))
    key, qubit, _ = _events_by_key(eng, trajectory_rng(1, 0), 16)
    hit = set((key * sched.qubit_count + qubit).tolist())
    built = [c._cells is not None for c in eng._classes]
    assert any(built) and not all(built)
    assert built == [bool(hit & set(c.cells.tolist())) for c in eng._classes]


@pytest.mark.parametrize("arch,kind", VARIANTS)
def test_noise_classes_equal_loop_definition(arch, kind):
    """The engine's vectorized class table holds the loop's classes, in the
    same order and with the same cells in the same order: both orders fix
    which slot each geometric draw lands on."""
    for n in (1, 3, 5):
        sched = build_schedule(arch, n, kind, _database(n), round_trip=n != 3)
        for channel in ("xz", "x", "z"):
            noise = NoiseModel(SurfaceParams(0.03, 0.3), sched.profile, channel=channel)
            eng = PlaneEngine(sched, noise)
            assert all(c._cells is None for c in eng._classes)
            got = [(c.q, c.cells.tolist()) for c in eng._classes]
            assert all(c.cells.dtype == np.int64 and c.cells.size == c.slots
                       for c in eng._classes)
            assert got == _noise_classes_loop(sched, noise), (arch, kind, n, channel)
