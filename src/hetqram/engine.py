"""Bit-plane batched trajectory executor.

Simulates many Monte Carlo trajectories of one schedule at once by storing
the state transposed: one uint64 row per logical qubit, one bit per
(trial, branch) column. Permutation gates become a handful of vectorized
word operations per gate, and Pauli errors become XORs over each hit
trial's column span, so the per-trajectory cost is a fraction of a
millisecond even for thousand-qubit registries.

Error model: the schedule's `NoisePlan` (noise.py), the one home of the
per-phase noise rule, says after which layers noise lands, for how many
rounds, and on which live qubits with what X and Z rates. There each live
qubit suffers a net X flip and a net Z flip with the odd-parity
probability of those rounds. Only the parity of X or Z hits on a qubit
within a phase can affect the final state, so this matches round-by-round
noise exactly up to the O((eps*k)^2) chance of an X and a Z landing on
the same qubit in the same phase in a specific order.

Event codes: `_run_codes`, the one method that builds and runs a plane,
takes a pass's error events as int64 codes cell * total + trial, in any
order, with cell (layer * 2 + is_z) * qubits + qubit, and draws nothing.
It sorts them once, so each layer's X flips and then its Z phases are two
contiguous runs that the gate loop applies right after that layer's
gates, and decodes cell and trial with one `//` each (`divmod` and `%` by
a scalar cost several times more). The test hook `run_events` codes the
same given events on every trial; the sampler draws them.

Noise sampling: every (noise step, live group, X or Z) segment of the plan
is pooled, once at construction, by its net flip probability q, into one
table of event cells per class. A batch draws all its noise up front, one
Bernoulli(q) process per class over the class's (slot, trial) pairs, by
summing geometric gaps between hits (the rare-error sampling of Stim,
Gidney, Quantum 5, 497 (2021)): exact iid flips at a cost proportional to
the number of hits.

Passes: a batch is the unit of randomness (one generator stream each),
not of work. Consecutive batches share one plane pass until it would span
more than 2^16 (trial, branch) columns, 8 KB per plane row: a narrow batch
alone gives rows of a few hundred words, where every gate costs its numpy
call overhead rather than its bits. Each batch still draws its addresses
and then its noise from its own generator, so the grouping changes no
fidelity. Sampled-basis mode keeps one batch per pass: there a row holds
one column per trial while the qubit count grows as ~6 * 2^n, so a pass
that wide would need gigabytes at large n. Within a pass, each event's
plane words and bit mask come from per-trial tables filled once the
trials' places in the plane are known.

A pass simulates only the trials that leave the noiseless path. A trial's
columns equal the noiseless run until its first error event, whose layer
is known once the pass's event codes are sorted. So the plane holds one
reference block (one trial's packed span, run without noise) followed by
the trials in order of their first event layer, and the gates run on the
active prefix only. Right after the gates of a trial's first event layer,
and before that layer's flips, its columns are copied in from the
reference block. The active width grows in at most `_JOIN_STEPS` steps,
each of which rebinds the row views, so a trial may join a few layers
early; that is exact, since until its first event it is a copy of the
reference. A trial that sees no event is never simulated: its fidelity is
exactly 1. Sampled-basis mode runs the same pass with a reference block of
one noiseless column per trial and every trial joined at layer 0.

Swaps are unconditional, so they never reach the plane: each layer
compiles once to gates on physical plane rows, and the swaps fold into a
static logical-to-physical row map, kept at the layers where noise lands
and at the last layer. `run_events` adds the maps of its own layers.

Error events are identical across the branches of one trial (they are
physical events on qubits, hitting the whole superposition), which is why
flips expand to whole per-trial column spans. Past the superposition
ceiling, sampled-basis mode runs one fresh random address per trial
instead; phase errors are then global and go uncounted.

Fidelity estimator: branches evolve without merging (the gate set only
permutes basis states and flips signs), so each trajectory yields, per
branch, a final word and a sign. A branch is good when its output mask
(its routing path's routers plus its leaf cell) matches the noiseless
reference; the per-trajectory fidelity is (sum_b w_b s_b g_b)^2, the
squared overlap of the query output with the noiseless run, treating
corrupted branches as orthogonal junk. Good branches count as coherent
with each other whatever residue is left outside their output masks, so
junk that a router moves off the addressed path never lowers fidelity.

Readout and noiseless reference: the reference is each pass's own block,
which the engine's gate kernel (`_gate_pass`, the one place that says
what a compiled gate does to a plane) runs through every layer next to
the trials. Both address modes read out through `_fidelities`, with the
`_compile_readout` of the block's column addresses: the 2^n addresses,
compiled once, or in sampled-basis mode the pass's trial addresses, one
column each, where B = 1 makes the squared overlap exactly the good bit.
The ideal bits are read off the block at each column's output mask under
the `care` patterns, and every trial's span is compared with them as whole
plane words, word by word of the span and only on the rows whose `care`
covers that word: a leaf cell's row holds one branch, so at n=8 it is read
at one of the four words of each trial's span. `Schedule.ideal_word` and `run_noiseless` stay the
independent per-address oracle that the tests compare against.
"""

from __future__ import annotations

from array import array
from typing import Iterable

import numpy as np

from .circuits import GateKind, Schedule
from .noise import NoiseModel, NoisePlan, PauliEvent, net_flip_probability

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: consecutive batches share a plane pass up to this many (trial, branch)
#: columns: 1024 words (8 KB) per plane row
_PASS_COLUMNS = 1 << 16

#: a pass widens its active prefix in at most this many steps: each step
#: rebinds one view per plane row, which costs more than simulating a few
#: pristine trials early
_JOIN_STEPS = 8

#: the readout gathers up to about this many plane words (256 KB) at a
#: time: one step per read row costs far more, a whole gather far more memory
_READ_CHUNK = 1 << 15


def _pack_bits_lsb(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into uint64 words, bit i of word w = bits[64w+i]."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.pad(packed, [(0, 0)] * (packed.ndim - 1) + [(0, pad)])
    return packed.view("<u8").astype(np.uint64, copy=False)


def _unpack_bits_lsb(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits of a uint64 vector, inverse of `_pack_bits_lsb`."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little")


def _word_bits(words: list[int], nq: int) -> np.ndarray:
    """(nq, len(words)) boolean matrix whose column b holds the bits of words[b]."""
    nbytes = (nq + 7) // 8
    raw = np.frombuffer(b"".join(w.to_bytes(nbytes, "little") for w in words), np.uint8)
    bits = np.unpackbits(raw.reshape(len(words), nbytes), axis=1, count=nq, bitorder="little")
    return np.ascontiguousarray(bits.T).view(bool)


def _pack_span(bits: np.ndarray) -> np.ndarray:
    """Pack (rows, C) column bits like one span of C columns: C/64 words,
    or for C < 64 one word holding the C columns 64/C times."""
    return _pack_bits_lsb(np.tile(bits, max(64 // bits.shape[1], 1)))


def _gate_pass(ops, rows: list[np.ndarray], scratch: np.ndarray, spare: np.ndarray) -> None:
    """Apply one compiled layer's gates in place.

    `rows` holds a view of each physical plane row, all of one width;
    `scratch` and `spare` are two more rows of that width.
    """
    for op in ops:
        if op[0] == "cswap":
            _, controls, a, b = op
            ra, rb = rows[a], rows[b]
            np.bitwise_xor(ra, rb, out=scratch)
            for c, pol in controls:
                if pol:
                    np.bitwise_and(scratch, rows[c], out=scratch)
                else:
                    np.invert(rows[c], out=spare)
                    np.bitwise_and(scratch, spare, out=scratch)
            np.bitwise_xor(ra, scratch, out=ra)
            np.bitwise_xor(rb, scratch, out=rb)
        else:  # invert
            r = rows[op[1]]
            np.invert(r, out=r)


def _bernoulli_hits(rng: np.random.Generator, slots: int, q: float) -> np.ndarray:
    """Sorted positions in range(slots) hit by iid Bernoulli(q) trials.

    Gaps between hits are geometric, so the hits are the running sums of
    geometric draws minus one: exact, distinct by construction, and O(hits).
    Clipping gaps at slots + 1 changes no hit below `slots` and keeps the
    sums within int64 even for vanishing q.
    """
    def gaps(expect: float) -> np.ndarray:
        m = int(expect + 5.0 * np.sqrt(expect)) + 16
        return np.minimum(rng.geometric(q, m), slots + 1)

    hits = np.cumsum(gaps(slots * q)) - 1
    while hits[-1] < slots:
        more = np.cumsum(gaps((slots - hits[-1]) * q)) + hits[-1]
        hits = np.concatenate([hits, more])
    return hits[: np.searchsorted(hits, slots)]


class PlaneEngine:
    """Batched trajectory runner for one schedule and noise model."""

    def __init__(
        self,
        schedule: Schedule,
        noise: NoiseModel | None,
        address_mode: str = "superposition",
    ):
        self.schedule = schedule
        self.noise = noise
        self.address_mode = address_mode
        nq = schedule.qubit_count

        if address_mode == "superposition":
            self.addresses = list(range(1 << schedule.n))
        elif address_mode == "basis":
            # sampled-basis mode: one fresh address per trial; phase
            # errors become global and are undercounted in this mode
            self.addresses = []
        else:
            raise ValueError(f"unknown address mode {address_mode!r}")
        self.sampled_basis = not self.addresses
        self.branch_count = max(len(self.addresses), 1)

        noise_layers = self._compile_noise(noise)
        self._ops, self._maps = self._compile(noise_layers | {len(schedule.layers) - 1})

        if not self.sampled_basis:
            # one trial's span of B columns, and its readout
            words = [schedule.initial_word(a) for a in self.addresses]
            self._init_span = _pack_span(_word_bits(words, nq))
            self._readout = self._compile_readout(self.addresses)

    def _compile_noise(self, noise: NoiseModel | None) -> set[int]:
        """Pool the plan's (noise step, live group, X or Z) segments by their
        net flip probability q; returns the layers where events can land.

        Per class, in order of first appearance, `(q, cells)`: the class's
        slots of one trial, segment after segment in (step, group, X before
        Z) order and each group's qubits in order, each holding its event
        cell `(layer * 2 + is_z) * qubits + qubit`. Both orders fix the
        draws.
        """
        self._classes = []
        if noise is None:
            return set()
        plan = NoisePlan(self.schedule, noise)
        groups = plan.groups
        if not groups:
            return set()
        nq = self.schedule.qubit_count
        size = np.array([g.qubits.size for g in groups], dtype=np.int64)
        start = np.cumsum(size) - size
        pool = np.concatenate([g.qubits for g in groups])
        layer = np.array([step.layer for step in plan.steps], dtype=np.int64)
        # q of each distinct (rate, rounds), one scalar call each
        p_vals, p_idx = np.unique([(g.px, g.pz) for g in groups], return_inverse=True)
        r_vals, r_idx = np.unique([step.rounds for step in plan.steps], return_inverse=True)
        flip = np.array([[net_flip_probability(float(p), int(r)) for r in r_vals] for p in p_vals])
        q = flip[p_idx.reshape(1, -1, 2), r_idx.reshape(-1, 1, 1)]  # (step, group, is_z)
        live = np.array([g.first_active for g in groups]) <= layer[:, None]
        step_i, group_i, is_z = np.nonzero(live[:, :, None] & (q > 0.0))
        q = q[step_i, group_i, is_z]
        if not q.size:
            return set()
        values, first, cls = np.unique(q, return_index=True, return_inverse=True)
        # classes in order of first appearance, and the segments class by
        # class, each class's in plan order (a stable sort)
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.size)
        rank = rank[cls.reshape(-1)]
        seg_order = np.argsort(rank, kind="stable")
        g = group_i[seg_order]
        key = layer[step_i[seg_order]] * 2 + is_z[seg_order]
        # slot k of a segment is qubit k of its group: pool[start + k]
        seg = size[g]
        ends = np.cumsum(seg)
        slot = np.arange(ends[-1]) + np.repeat(start[g] - (ends - seg), seg)
        cells = np.repeat(key * nq, seg) + pool[slot]
        split = ends[np.flatnonzero(np.diff(rank[seg_order]))]
        self._classes = list(zip(values[by_first].tolist(), np.split(cells, split)))
        return set(layer[step_i].tolist())

    def _compile(self, keep: set[int]) -> tuple[list[list[tuple]], dict[int, np.ndarray]]:
        """Each layer's gates on physical plane rows, and the logical-to-
        physical row map after each layer in `keep`.

        A plain swap relabels two rows instead of moving their data. Swaps
        are unconditional, so the relabelling is the same in every pass:
        it folds into the row map here and never reaches the plane.
        """
        # int64 buffer: each kept map is one copy, not a per-item conversion
        row = array("q", range(self.schedule.qubit_count))
        ops, maps = [], {}
        for li, layer in enumerate(self.schedule.layers):
            layer_ops = []
            for g in layer.gates:
                if g.controls:  # a controlled swap
                    a, b = g.operands
                    layer_ops.append(("cswap", [(row[c], pol) for c, pol in g.controls],
                                      row[a], row[b]))
                elif g.kind is GateKind.SWAP:
                    a, b = g.operands
                    row[a], row[b] = row[b], row[a]
                elif g.kind is GateKind.X:
                    layer_ops.append(("invert", row[g.operands[0]]))
                elif g.kind is GateKind.CLASSICAL_CX:
                    if g.data_bit:
                        layer_ops.append(("invert", row[g.operands[0]]))
                else:
                    raise AssertionError(g.kind)
            ops.append(layer_ops)
            if li in keep:
                maps[li] = np.array(row)
        return ops, maps

    def _compile_readout(self, addresses) -> tuple[np.ndarray, np.ndarray, list]:
        """The readout of a span of columns, column c holding addresses[c]:
        `(read_rows, care, word_rows)`.

        For each distinct output-mask qubit (`read_rows`), `care` marks the
        columns whose mask holds it, packed like the span by `_pack_span`:
        every trial's span of a pass plane, and its reference block, line
        up with that pattern. `word_rows` lists, for each word of the span,
        the read rows whose `care` is nonzero there: a leaf's row covers
        one branch, so one word, and a router's the branches below it."""
        masks = [self.schedule.output_mask(int(a)) for a in addresses]
        col = np.repeat(np.arange(len(masks)), [len(m) for m in masks])
        qubit = np.fromiter((q for m in masks for q in m), dtype=np.int64, count=col.size)
        read_rows, slot = np.unique(qubit, return_inverse=True)
        care = np.zeros((read_rows.size, len(masks)), dtype=bool)
        care[slot, col] = True
        care = _pack_span(care)
        return read_rows, care, [np.flatnonzero(words) for words in care.T]

    # -- execution -------------------------------------------------------

    def run(self, rng: np.random.Generator, n_trials: int) -> np.ndarray:
        """Run `n_trials` trajectories; returns their fidelities."""
        return self.run_batches([(rng, n_trials)])

    def run_batches(self, batches: Iterable[tuple[np.random.Generator, int]]) -> np.ndarray:
        """Fidelities of every `(rng, n_trials)` batch, in order.

        Consecutive batches share one plane pass while it spans at most
        `_PASS_COLUMNS` (trial, branch) columns; a wider batch runs alone,
        and so does every batch in sampled-basis mode. Each batch draws
        from its own generator, so the grouping changes no fidelity.
        """
        out, group, cols = [np.empty(0)], [], 0
        for rng, n_trials in batches:
            span = n_trials * self.branch_count
            if group and (self.sampled_basis or cols + span > _PASS_COLUMNS):
                out.append(self._run_sampled(group))
                group, cols = [], 0
            group.append((rng, n_trials))
            cols += span
        if group:
            out.append(self._run_sampled(group))
        return np.concatenate(out)

    def run_events(self, events_by_layer: dict[int, list[PauliEvent]], n_trials: int) -> np.ndarray:
        """Fidelities of `n_trials` superposition-mode trials that each see
        exactly the Pauli events of `events_by_layer`, applied after the
        named layers in place of sampled noise (a test hook)."""
        if self.sampled_basis:
            raise ValueError("run_events needs superposition address mode")
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        nq = self.schedule.qubit_count
        for li, events in events_by_layer.items():
            if not 0 <= li < len(self._ops):
                raise ValueError(f"event layer {li} outside [0, {len(self._ops)})")
            for ev in events:
                if not 0 <= ev.qubit < nq:
                    raise ValueError(f"event qubit {ev.qubit} outside [0, {nq})")
        missing = set(events_by_layer) - set(self._maps)
        if missing:
            self._maps.update(self._compile(missing)[1])
        cells = np.array([(li * 2 + (ev.kind == "Z")) * nq + ev.qubit
                          for li, events in events_by_layer.items() for ev in events],
                         dtype=np.int64)
        return self._run_codes((cells[:, None] * n_trials + np.arange(n_trials)).ravel(), n_trials)

    def _run_sampled(self, batches: list[tuple[np.random.Generator, int]]) -> np.ndarray:
        """Run the trials of `batches` in one plane pass; returns their
        fidelities, batch after batch. Each batch draws its addresses
        (sampled-basis mode) and then its noise from its own generator."""
        sizes = [n for _, n in batches]
        if min(sizes) < 1:
            raise ValueError("n_trials must be >= 1")
        total = sum(sizes)
        addresses, codes, offset = [], [np.zeros(0, dtype=np.int64)], 0
        for rng, n_trials in batches:
            if self.sampled_basis:
                addresses.append(rng.integers(0, 1 << self.schedule.n, size=n_trials))
            codes += self._sample_events(rng, n_trials, total, offset)
            offset += n_trials
        # one array, so the per-class arrays are freed before the pass
        codes = np.concatenate(codes)
        return self._run_codes(codes, total, np.concatenate(addresses) if addresses else None)

    def _run_codes(self, codes: np.ndarray, total: int, trial_addresses=None) -> np.ndarray:
        """Run one plane pass of `total` trials whose error events are the
        int64 `codes`, `cell * total + trial` with cell `(layer * 2 + is_z)
        * qubits + qubit`, in any order; returns the trials' fidelities.

        Sampled-basis mode takes each trial's address in `trial_addresses`.
        The pass sorts `codes` in place and then spends them.
        """
        nq = self.schedule.qubit_count
        B = self.branch_count
        n_layers = len(self._ops)
        maps = self._maps
        # sorted, each layer's X flips and then its Z phases are contiguous;
        # decoded once with // (divmod and % cost far more)
        codes.sort()
        bounds = np.searchsorted(codes, np.arange(2 * n_layers + 1) * (nq * total))
        cell = codes // total
        trial = np.subtract(codes, cell * total, out=codes)

        # the reference block and each trial's first event layer (n_layers
        # for none); trials join the plane in that order, reference first
        if self.sampled_basis:
            words = [self.schedule.initial_word(int(a)) for a in trial_addresses]
            block = _pack_span(_word_bits(words, nq))
            readout = self._compile_readout(trial_addresses)
            first = np.zeros(total, dtype=np.int64)
        else:
            block, readout = self._init_span, self._readout
            first = np.full(total, n_layers, dtype=np.int64)
            # last layer first, so each trial keeps its earliest; segment by
            # segment, with no temporary the size of all the codes
            for li in range(n_layers - 1, -1, -1):
                first[trial[bounds[2 * li] : bounds[2 * li + 2]]] = li
        order = np.argsort(first, kind="stable")[: np.count_nonzero(first < n_layers)]
        fids = np.ones(total)
        if not order.size:
            return fids
        S = block.shape[1]
        ref_slots = S * 64 // B

        # join steps: after the gates of layer join[k] the active prefix
        # grows to width[k] words; each step starts at a new first layer
        firsts = first[order]
        starts = np.flatnonzero(np.diff(firsts, prepend=-1))
        steps = starts[np.diff(starts * _JOIN_STEPS // order.size, prepend=-1) > 0]
        join = firsts[steps].tolist()
        width = (((ref_slots + np.append(steps[1:], order.size)) * B + 63) // 64).tolist()
        W = width[-1]

        plane = np.empty((nq, W), dtype=np.uint64)
        plane[:, :S] = block
        blocks = plane.reshape(nq, W // S, S)
        plane_flat = plane.reshape(-1)
        sign = np.zeros(W, dtype=np.uint64)
        scratch = np.empty((2, W), dtype=np.uint64)
        # per trial of the pass, the plane words of its slot and its bits
        # in each (trials that never join have no event to look them up)
        spans_idx, spans_mask = self._trial_spans(ref_slots + order.size, B)
        trial_words = np.zeros((total, spans_idx.shape[1]), dtype=np.int64)
        trial_words[order] = spans_idx[ref_slots:]
        trial_mask = np.zeros(trial_words.shape, dtype=np.uint64)
        trial_mask[order] = spans_mask[ref_slots:]

        w, step = S, 0
        rows, tmp, spare = list(plane[:, :w]), scratch[0, :w], scratch[1, :w]
        for li, ops in enumerate(self._ops):
            _gate_pass(ops, rows, tmp, spare)
            if step < len(join) and join[step] == li:
                # copy the block out first: broadcasting it from a view of
                # the same plane would buffer the whole fill
                blocks[:, w // S : width[step] // S] = plane[:, :S].copy()[:, None, :]
                w = width[step]
                step += 1
                rows, tmp, spare = list(plane[:, :w]), scratch[0, :w], scratch[1, :w]
            # X flips of this layer, then Z phases read from the flipped plane
            for is_z in (0, 1):
                lo, hi = bounds[2 * li + is_z], bounds[2 * li + is_z + 1]
                if lo == hi:
                    continue
                # take, not fancy indexing: several times faster on rows
                t = trial[lo:hi]
                words, wmask = trial_words.take(t, axis=0), trial_mask.take(t, axis=0).ravel()
                qubit = cell[lo:hi] - (2 * li + is_z) * nq
                widx = (maps[li].take(qubit)[:, None] * W + words).ravel()
                if is_z:
                    np.bitwise_xor.at(sign, words.ravel(), plane_flat.take(widx) & wmask)
                else:
                    np.bitwise_xor.at(plane_flat, widx, wmask)

        fids[order] = self._fidelities(plane, maps[n_layers - 1], sign, order.size, readout)
        return fids

    def _sample_events(
        self, rng: np.random.Generator, n_trials: int, total: int, offset: int
    ) -> list[np.ndarray]:
        """Draw one batch's noise: one Bernoulli process per flip-probability
        class over its `cells.size * n_trials` slots, as one unsorted array
        of event codes `cells[j] * total + offset + trial` per class.

        The batch's trials are trials `offset..` of a pass of `total`.
        Slot `j * n_trials + t` is slot j of the class's cells in trial t.
        """
        codes = []
        for q, cells in self._classes:
            hits = _bernoulli_hits(rng, cells.size * n_trials, q)
            j = hits // n_trials
            hits -= j * n_trials  # the trial
            hits += offset
            code = cells[j]
            code *= total
            code += hits
            codes.append(code)
        return codes

    @staticmethod
    def _trial_spans(n_slots: int, B: int):
        """Per slot of B columns, the plane words it touches and the bits
        it owns in each. B is a power of two, so no slot straddles a word:
        a slot of B < 64 columns owns part of one word."""
        per = max(B // 64, 1)
        start = np.arange(n_slots, dtype=np.int64)[:, None] * B
        words = (start >> 6) + np.arange(per, dtype=np.int64)
        msk = (_FULL >> np.uint64(64 - min(B, 64))) << (start & 63).astype(np.uint64)
        return words, np.broadcast_to(msk, words.shape)

    def _ideal(self, plane: np.ndarray, row: np.ndarray, readout) -> np.ndarray:
        """Each read row's noiseless final bits from the pass's reference
        block, under `care`: column c's ideal bit at each qubit of its
        output mask, packed like `care`."""
        read_rows, care, _ = readout
        return plane[row[read_rows], : care.shape[1]] & care

    def _fidelities(self, plane, row, sign, active: int, readout) -> np.ndarray:
        """Fidelities of the `active` trials after the reference block, in
        plane order."""
        # a branch is bad when any bit it reads differs from its ideal bit;
        # word k of every tile of S words at once, for up to _READ_CHUNK
        # words per step, from the rows whose care covers word k
        B = self.branch_count
        read_rows, care, word_rows = readout
        S = care.shape[1]
        bad = np.zeros((plane.shape[1] // S - 1, S), dtype=np.uint64)
        ideal = self._ideal(plane, row, readout)
        phys = row[read_rows]
        step = max(_READ_CHUNK // bad.shape[0], 1)
        for k, rows in enumerate(word_rows):
            tiles = plane[:, S + k :: S]
            for lo in range(0, rows.size, step):
                r = rows[lo : lo + step]
                d = tiles[phys[r]]
                d ^= ideal[r, k, None]
                d &= care[r, k, None]
                bad[:, k] |= np.bitwise_or.reduce(d, axis=0)
        cols = active * B
        good = _unpack_bits_lsb(~bad.reshape(-1), cols).reshape(active, B)
        flipped = _unpack_bits_lsb(sign[S:], cols).reshape(active, B) & good
        # every weight is 2^-n, so this is the per-branch overlap sum exactly
        net = good.sum(axis=1, dtype=np.int64) - 2 * flipped.sum(axis=1, dtype=np.int64)
        overlap = net * (1.0 / B)
        return overlap**2
