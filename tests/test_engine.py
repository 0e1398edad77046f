"""Batched plane engine against the word-by-word oracle and hand-checkable cases."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from word_oracle import reference_fidelity, sampled_events

from hetqram.circuits import (
    build_bb_hetero,
    build_ft_hetero,
    build_schedule,
    build_uniform_bb,
    build_walker,
)
from hetqram.engine import (
    PlaneEngine,
    _bernoulli_hits,
    _pack_bits_lsb,
    _unpack_bits_lsb,
    _word_bits,
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
    extension loop to draw again and again."""

    class UnitGaps:
        calls = 0

        def geometric(self, p, size):
            UnitGaps.calls += 1
            return np.ones(size, dtype=np.int64)

    hits = _bernoulli_hits(UnitGaps(), 1000, 0.01)
    assert np.array_equal(hits, np.arange(1000))
    assert UnitGaps.calls > 1


def _events_by_key(engine, rng, n_trials):
    """Sampled events as (key, qubit, trial) arrays, key = layer * 2 + is_z,
    decoded from the engine's sorted event codes."""
    codes = engine._sample_events(rng, n_trials)
    assert codes.dtype == np.int64 and np.all(np.diff(codes) >= 0)
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
    fids = eng.run(trajectory_rng(0, 0), 4, forced_events=forced)
    assert np.allclose(fids, (7 / 8) ** 2)


def test_forced_z_on_root_direction_halves_overlap_to_zero():
    sched = build_bb_hetero(3, "qutrit", [0] * 8)
    root_r = next(
        q
        for q in range(sched.qubit_count)
        if sched.roles[q] == "router_direction" and sched.levels[q] == 0
    )
    eng = PlaneEngine(sched, None)
    forced = {len(sched.layers) - 1: [PauliEvent(root_r, "Z")]}
    fids = eng.run(trajectory_rng(0, 0), 2, forced_events=forced)
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
            batch = eng.run(trajectory_rng(0, 0), 3, forced_events={layer_idx: events})
            ref = reference_fidelity(sched, {layer_idx: events})
            assert batch == pytest.approx([ref] * 3, abs=1e-12)


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


def _word_bits_loop(words, nq):
    bits = np.zeros((nq, len(words)), dtype=bool)
    for b, w in enumerate(words):
        for q in range(nq):
            bits[q, b] = (w >> q) & 1
    return bits


def _trial_spans_loop(n_trials, B):
    """Word-by-word definition of the per-trial spans."""
    per = max(B // 64 + (2 if B % 64 else 0), 1)
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
@given(st.data())
def test_word_bits_equals_bit_by_bit_definition(data):
    nq = data.draw(st.integers(1, 150), label="nq")
    word = st.integers(0, (1 << nq) - 1)
    high = word.map(lambda w: w | (1 << (nq - 1)))  # top qubit set
    words = data.draw(st.lists(word | high, max_size=70), label="words")
    bits = _word_bits(words, nq)
    assert bits.dtype == bool and bits.shape == (nq, len(words))
    assert np.array_equal(bits, _word_bits_loop(words, nq))


@pytest.mark.parametrize("B", [1, 2, 8, 32, 64, 128, 1024])
@pytest.mark.parametrize("n_trials", [1, 7, 63, 64, 65, 130])
def test_trial_spans_equal_word_by_word_definition(B, n_trials):
    idx, msk = PlaneEngine._trial_spans(n_trials, B, (n_trials * B + 63) // 64)
    ref_idx, ref_msk = _trial_spans_loop(n_trials, B)
    assert np.array_equal(idx, ref_idx) and idx.dtype == ref_idx.dtype
    assert np.array_equal(msk, ref_msk) and msk.dtype == ref_msk.dtype


@pytest.mark.parametrize("arch,kind", VARIANTS)
@pytest.mark.parametrize("round_trip", [None, True, False])
def test_reference_plane_pass_matches_ideal_word(arch, kind, round_trip):
    """Each branch's ideal bits, as the readout holds them after the
    engine's noiseless plane pass, equal the bits of the per-address oracle
    `Schedule.ideal_word(a)` at `output_mask(a)`, and no mask qubit is
    missing or extra."""
    for n in range(1, 7):
        sched = build_schedule(arch, n, kind, _database(n), round_trip=round_trip)
        eng = PlaneEngine(sched, None)
        B = 1 << n
        masks = [set(sched.output_mask(a)) for a in range(B)]
        assert set(eng._read_rows.tolist()) == set().union(*masks)
        span = eng._care.shape[1] * 64
        for q, care, ideal in zip(eng._read_rows, eng._care, eng._ideal):
            care, ideal = _unpack_bits_lsb(care, span), _unpack_bits_lsb(ideal, span)
            for col in range(span):
                a = col % B
                expect_care = q in masks[a]
                assert care[col] == expect_care, (n, q, a)
                expect = (sched.ideal_word(a) >> int(q)) & 1 if expect_care else 0
                assert ideal[col] == expect, (n, q, a)


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
