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

Deviation-tracked passes: one fault corrupts only the branches that pass
through the faulty router, so in a deep tree a joined trial still matches
the reference on most (row, trial) pairs. A superposition pass whose trial
spans are at least two plane words wide (n >= 7), and whose joined trials
carry at most `_DEVIATION_EVENTS_PER_ROW` events per plane row each, keeps
only each joined trial's XOR against the reference block, as Stim's frame
simulator tracks only the deviation from a noiseless reference sample
(Gidney, Quantum 5, 497 (2021)). A controlled swap then runs only on the
(row, trial) pairs where an operand or a control deviates, and the readout
compares only the read rows that deviate. The dense plane stays for every
other pass: with one trial per word or less (n <= 6), in sampled-basis
mode and on heavy passes, its whole-row operations beat the per-pair
gathers (measured at n=7..9 past about 1/30 events per row). Both kernels
give the same fidelities bit for bit.

Swaps are unconditional, so they never reach the plane: each layer
compiles once to gates on physical plane rows, and the swaps fold into a
static logical-to-physical row map, kept at the layers where noise lands
and at the last layer. `run_events` adds the maps of its own layers. The
layers, the maps and the superposition block and readout are compiled on
the first pass that sees an event, and the deviation kernel's per-layer
groups on its first pass, so an engine whose trials see no event compiles
nothing.

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
`_span` of the block's column addresses: the 2^n addresses, compiled
once, or in sampled-basis mode the pass's trial addresses, one column
each, where B = 1 makes the squared overlap exactly the good bit. Each
address's initial word and output mask are decoded once per engine.
The ideal bits are read off the block at each column's output mask under
the `care` patterns, and every trial's span is compared with them as whole
plane words, word by word of the span and only on the rows whose `care`
covers that word: a leaf cell's row holds one branch, so at n=8 it is read
at one of the four words of each trial's span. `Schedule.ideal_word` and `run_noiseless` stay the
independent per-address oracle that the tests compare against.
"""

from __future__ import annotations

from array import array
from itertools import chain
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

#: a superposition pass whose trials span two or more plane words runs the
#: deviation-tracked kernel when its events per joined trial are at most
#: this many per plane row. Its gathers grow with the deviating pairs, and
#: those with events per row, not per trial: measured at n=7..9, it beat
#: the dense kernel up to 1/40 and lost from about 1/30 on
_DEVIATION_EVENTS_PER_ROW = 1 / 40

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

        self._noise_layers = self._compile_noise(noise)
        # built by `_prepare` on the first pass that has an event
        self._ops = self._maps = self._init_span = self._readout = self._groups = None
        # per address seen: its initial word's set qubits and its output mask
        self._columns: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

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

    def _prepare(self, layers: Iterable[int] = ()) -> None:
        """Compile the layers, with the row maps after the noise layers, the
        last layer and `layers`, and the superposition span, on the first
        pass that has an event: a pass with none needs none of them."""
        keep = self._noise_layers | {len(self.schedule.layers) - 1} | set(layers)
        if self._ops is None:
            self._ops, self._maps = self._compile(keep)
            if not self.sampled_basis:
                # one trial's span of B columns, and its readout
                self._init_span, self._readout = self._span(self.addresses)
        elif not keep <= self._maps.keys():
            self._maps.update(self._compile(keep - self._maps.keys())[1])

    def _span(self, addresses) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, list]]:
        """The noiseless block and the readout of a span of columns, column
        c holding addresses[c]: `(block, (read_rows, care, word_rows))`.

        The block holds each column's initial word, packed by `_pack_span`.
        For each distinct output-mask qubit (`read_rows`), `care` marks the
        columns whose mask holds it, packed the same way: every trial's
        span of a pass plane, and its reference block, line up with that
        pattern. `word_rows` lists, for each word of the span, the read
        rows whose `care` is nonzero there: a leaf's row covers one branch,
        so one word, and a router's the branches below it. Each address's
        initial word and output mask are decoded once per engine, so a
        sampled-basis pass pays per trial only for lookups."""
        nq = self.schedule.qubit_count
        known = self._columns
        addresses = [int(a) for a in addresses]
        new = list(dict.fromkeys(a for a in addresses if a not in known))
        step = max((1 << 24) // nq, 1)  # bounds the (nq, step) bit matrix
        for lo in range(0, len(new), step):
            chunk = new[lo : lo + step]
            words = [self.schedule.initial_word(a) for a in chunk]
            set_bits = np.flatnonzero(_word_bits(words, nq))
            qubit = set_bits // len(chunk)
            col = set_bits - qubit * len(chunk)
            order = np.argsort(col, kind="stable")
            ends = np.searchsorted(col[order], np.arange(1, len(chunk) + 1)).tolist()
            qubit = qubit[order].tolist()
            for a, start, end in zip(chunk, [0] + ends, ends):
                known[a] = tuple(qubit[start:end]), self.schedule.output_mask(a)
        cols = [known[a] for a in addresses]
        C = len(cols)

        def cells(part: int) -> tuple[np.ndarray, np.ndarray]:
            """(qubit, column) of every qubit listed in `part` of a column."""
            lists = [c[part] for c in cols]
            count = np.fromiter(map(len, lists), dtype=np.int64, count=C)
            qubits = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=count.sum())
            return qubits, np.repeat(np.arange(C), count)

        bits = np.zeros((nq, C), dtype=bool)
        bits[cells(0)] = True
        qubit, col = cells(1)
        read_rows, slot = np.unique(qubit, return_inverse=True)
        care = np.zeros((read_rows.size, C), dtype=bool)
        care[slot, col] = True
        care = _pack_span(care)
        return _pack_span(bits), (read_rows, care, [np.flatnonzero(words) for words in care.T])

    @staticmethod
    def _group(ops) -> tuple[list[tuple], np.ndarray]:
        """One compiled layer as the deviation kernel runs it: its
        controlled swaps grouped by their control polarities, each group
        `(a, b, controls)` with one entry per swap in `a`, `b` and each
        `(rows, polarity)` of `controls`; and its inverted rows. The
        layer-parallel rule keeps every operand of a layer off every other
        gate's operands and controls, so a group may gather all its rows
        before it writes any."""
        by_pattern: dict[tuple, list] = {}
        inverts = []
        for op in ops:
            if op[0] == "cswap":
                controls = op[1]
                # a controlled swap has one or two controls, so this key
                # fixes every polarity
                key = (len(controls), controls[0][1], controls[-1][1])
                by_pattern.setdefault(key, []).append(op)
            else:
                inverts.append(op[1])

        def rows(gates, get) -> np.ndarray:
            return np.fromiter(map(get, gates), dtype=np.int64, count=len(gates))

        swaps = []
        for gates in by_pattern.values():
            controls = [(rows(gates, lambda g: g[1][j][0]), pol)
                        for j, (_, pol) in enumerate(gates[0][1])]
            swaps.append((rows(gates, lambda g: g[2]), rows(gates, lambda g: g[3]), controls))
        return swaps, np.array(inverts, dtype=np.int64)

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
        nq, n_layers = self.schedule.qubit_count, len(self.schedule.layers)
        for li, events in events_by_layer.items():
            if not 0 <= li < n_layers:
                raise ValueError(f"event layer {li} outside [0, {n_layers})")
            for ev in events:
                if not 0 <= ev.qubit < nq:
                    raise ValueError(f"event qubit {ev.qubit} outside [0, {nq})")
        self._prepare(events_by_layer)
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
        The pass sorts `codes` in place and then spends them. A light pass
        with trial spans of two or more words runs `_run_deviations`, and
        every other pass the dense plane below.
        """
        if not codes.size:
            # every trial is the noiseless run: fidelity exactly 1
            return np.ones(total)
        self._prepare()
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
            block, readout = self._span(trial_addresses)
            first = np.zeros(total, dtype=np.int64)
        else:
            if B >= 128:  # each trial spans at least two plane words
                joined = np.zeros(total, dtype=bool)
                joined[trial] = True
                if cell.size <= _DEVIATION_EVENTS_PER_ROW * np.count_nonzero(joined) * nq:
                    return self._run_deviations(cell, trial, bounds, joined)
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

    def _run_deviations(self, cell, trial, bounds, joined) -> np.ndarray:
        """The deviation-tracked form of a superposition pass: the same
        fidelities as the dense plane from the decoded, sorted events, for
        passes whose joined trials carry few events.

        Each joined trial (one with an event) keeps only its XOR against
        the reference block, whose span of S >= 2 words runs densely. The
        deviations start at zero, so no trial is copied in, and pages that
        no deviation touches are never written. A flag per (row, joined
        trial) marks the pairs that may deviate. Each group of a layer's
        controlled swaps costs a fixed number of numpy calls: the
        reference's swap, then a gather and a scatter of only the pairs
        where an operand or a control is flagged. An inversion acts on the
        reference alone, since it leaves every XOR as it was. An X event
        flips its trial's whole span, and a Z event reads its row's value
        as deviation ^ reference. The readout compares only the flagged
        read rows: a clean pair reads exactly its ideal bits.
        """
        if self._groups is None:
            self._groups = [self._group(ops) for ops in self._ops]
        nq = self.schedule.qubit_count
        n_layers = len(self._ops)
        ref = self._init_span.copy()
        S = ref.shape[1]
        T = np.count_nonzero(joined)
        slot = (np.cumsum(joined) - 1)[trial]  # each event's joined trial
        dev = np.zeros((nq * T, S), dtype=np.uint64)  # row r, trial t at r * T + t
        dirty = np.zeros(nq * T, dtype=bool)
        flags = dirty.reshape(nq, T)
        sign = np.zeros((T, S), dtype=np.uint64)
        for li, (swaps, inverts) in enumerate(self._groups):
            for a, b, controls in swaps:
                ra, rb = ref.take(a, axis=0), ref.take(b, axis=0)
                x = ra ^ rb
                m = x.copy()  # the reference's swap mask
                u = flags.take(a, axis=0) | flags.take(b, axis=0)
                rcs = []
                for c, pol in controls:
                    rc = ref.take(c, axis=0)
                    m &= rc if pol else ~rc
                    u |= flags.take(c, axis=0)
                    rcs.append(rc)
                hit = np.flatnonzero(u)
                if hit.size:
                    g = hit // T
                    t = hit - g * T
                    fa, fb = a[g] * T + t, b[g] * T + t
                    da, db = dev.take(fa, axis=0), dev.take(fb, axis=0)
                    # how each pair's swap mask differs from the reference's
                    dm = da ^ db
                    dm ^= x.take(g, axis=0)
                    for (c, pol), rc in zip(controls, rcs):
                        vc = dev.take(c[g] * T + t, axis=0) ^ rc.take(g, axis=0)
                        dm &= vc if pol else ~vc
                    dm ^= m.take(g, axis=0)
                    da ^= dm
                    db ^= dm
                    dev[fa], dev[fb] = da, db
                    dirty[fa], dirty[fb] = da.any(axis=1), db.any(axis=1)
                ra ^= m
                rb ^= m
                ref[a], ref[b] = ra, rb
            if inverts.size:
                ref[inverts] = ~ref[inverts]
            lo, mid, hi = bounds[2 * li : 2 * li + 3]
            if lo < mid:  # X flips: each trial's whole span
                rows = self._maps[li].take(cell[lo:mid] - 2 * li * nq)
                f = rows * T + slot[lo:mid]
                dev[f] = ~dev[f]
                dirty[f] = True
            if mid < hi:  # Z phases, read from the flipped state
                rows = self._maps[li].take(cell[mid:hi] - (2 * li + 1) * nq)
                f = rows * T + slot[mid:hi]
                np.bitwise_xor.at(sign, slot[mid:hi], dev[f] ^ ref[rows])

        read_rows, care, _ = self._readout
        phys = self._maps[n_layers - 1][read_rows]
        hit = np.flatnonzero(flags.take(phys, axis=0))
        r = hit // T
        t = hit - r * T
        bad = np.zeros((T, S), dtype=np.uint64)
        np.bitwise_or.at(bad, t, dev.take(phys[r] * T + t, axis=0) & care.take(r, axis=0))
        fids = np.ones(joined.size)
        fids[joined] = self._overlap_squares(bad, sign, T)
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
        return self._overlap_squares(bad, sign[S:], active)

    def _overlap_squares(self, bad: np.ndarray, sign: np.ndarray, active: int) -> np.ndarray:
        """Each of `active` trials' squared overlap with the noiseless run,
        from the words of their spans in turn: `bad` marks the branches
        that read a wrong bit, `sign` those whose sign flipped."""
        B = self.branch_count
        cols = active * B
        good = _unpack_bits_lsb(~bad.reshape(-1), cols).reshape(active, B)
        flipped = _unpack_bits_lsb(sign.reshape(-1), cols).reshape(active, B) & good
        # every weight is 2^-n, so this is the per-branch overlap sum exactly
        net = good.sum(axis=1, dtype=np.int64) - 2 * flipped.sum(axis=1, dtype=np.int64)
        overlap = net * (1.0 / B)
        return overlap**2
