"""Bit-plane batched trajectory executor.

Simulates many Monte Carlo trajectories of one schedule at once by storing
the state transposed: one uint64 row per logical qubit, one bit per
(trial, branch) column. Permutation gates become a handful of vectorized
word operations per group of like gates, and Pauli errors become XORs over
each hit trial's column span, so the per-trajectory cost is a fraction of a
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
class per q; a class builds its table of event cells on the first batch
that hits it. A batch draws all its noise up front, one Bernoulli(q)
process per class over the class's (slot, trial) pairs, by summing
geometric gaps between hits (the rare-error sampling of Stim, Gidney,
Quantum 5, 497 (2021)): exact iid flips at a cost proportional to the
number of hits. For q < 1/3 the gaps come from the inversion that numpy's
`Generator.geometric` itself uses, ceil(E / -log1p(-q)) of standard
exponentials E, with the logarithm taken once per class rather than once
per draw: the same gaps from the same stream at about half the cost.

Passes: a batch is the unit of randomness (one generator stream each),
not of work. Consecutive batches share one plane pass until it would span
more than 2^16 (trial, branch) columns, 8 KB per plane row: a narrow batch
alone gives rows of a few hundred words, where every gate costs its numpy
call overhead rather than its bits. Each batch still draws its addresses
and then its noise from its own generator, so the grouping changes no
fidelity. Sampled-basis mode keeps one batch per pass: there a row holds
one column per trial while the qubit count grows as ~6 * 2^n, so a pass
that wide would need gigabytes at large n. Within a pass each trial owns a
slot of the plane, its place in join order after the reference block,
and an event finds its plane place from that slot by arithmetic: the plane
and the sign row are viewed as trial units (`_trial_units`), one unsigned
unit per slot (uint{B} for 8 <= B <= 64, B/64 words beyond; spans of 2 or
4 branches widen to a byte, as `_pack_span` tiles them). A layer's X flips
are then one invert of distinct units, and its Z phases one unit gather
and one `xor.at` into the sign units. In sampled-basis mode a unit is the
byte of 8 one-column trials: flips that share a byte are OR-combined
first, and phases masked to each trial's bit.

A pass simulates only the trials that leave the noiseless path. A trial's
columns equal the noiseless run until its first error event, whose layer
is known once the pass's event codes are sorted. So the plane holds one
reference block (one trial's packed span, run without noise) followed by
the trials in order of their first event layer, and the gates run on the
active prefix only. Right after the gates of a trial's first event layer,
and before that layer's flips, its columns are copied in from the
reference block. The active width grows in at most `_JOIN_STEPS` steps,
each of which copies the block into the newly joined slots, so a trial may
join a few layers early; that is exact, since until its first event it is
a copy of the reference. A trial that sees no event is never simulated:
its fidelity is exactly 1. Sampled-basis mode runs the same pass with a
reference block of one noiseless column per trial and every trial joined
at layer 0.

Deviation-tracked passes: one fault corrupts only the branches that pass
through the faulty router, so in a deep tree a joined trial still matches
the reference on most (row, trial) pairs. A superposition pass whose trial
spans are at least two plane words wide (n >= 7), and whose joined trials
carry at most `_DEVIATION_EVENTS_PER_ROW` events per plane row each, keeps
only each joined trial's XOR against the reference block, as Stim's frame
simulator tracks only the deviation from a noiseless reference sample
(Gidney, Quantum 5, 497 (2021)). It stores that XOR only for the (row,
trial) pairs that have deviated (`_DeviationStore`), so its memory follows
those pairs and not rows x trials x span; a bucket-brigade fault stays
inside the subtree below its router (Hann et al., PRX Quantum 2, 020311
(2021)), so they are few. A controlled swap then runs only on the
(row, trial) pairs where an operand or a control deviates, and the readout
compares only the read rows that deviate. It runs the same compiled
polarity groups as the dense kernel. The dense plane stays for every
other pass: with one trial per word or less (n <= 6), in sampled-basis
mode and on heavy passes, its whole-row operations beat the per-pair
gathers (measured past about 1/50 events per row at n=7, and past 1/37
to 1/17 at n=8 and 9). Both kernels give the same fidelities bit for bit.

Swaps are unconditional, so they never reach the plane: each layer
compiles once to gates on physical plane rows, and the swaps fold into a
static logical-to-physical row map, kept at the layers where noise lands
and at the last layer. `run_events` adds the maps of its own layers. The
compile reads the layers' gate tables (`circuits.GateTable`), never
`Layer.gates`: it sorts all the tables once into each layer's polarity
groups, plain swaps and inverts, so a layer costs a fixed number of numpy
calls. A layer compiles straight to its controlled swaps grouped by
control polarities, as index arrays, plus the rows it inverts; the dense kernel
(`_gate_pass`) runs each group with a fixed number of numpy calls (one
gather, the swap mask, one scatter) on chunks of at most `_GATE_CHUNK`
plane words. The layers, the maps and the superposition block and readout
are compiled on the first pass that sees an event, so an engine whose
trials see no event compiles nothing.

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
each, where B = 1 makes the squared overlap exactly the good bit.
`_span` reads the schedule's address map (`circuits.Schedule`) for all
its columns at once, so a span costs a fixed number of numpy calls
whatever its width, and packs only the (row, column) bits that are set.
The ideal bits are read off the block at each column's output mask under
the `care` patterns, and every trial's span is compared with them as whole
plane words, word by word of the span and only on the rows whose `care`
covers that word: a leaf cell's row holds one branch, so at n=8 it is read
at one of the four words of each trial's span. `Schedule.ideal_word` and `run_noiseless` stay the
independent per-address oracle that the tests compare against.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .circuits import GateTable, Schedule
from .noise import NoiseModel, NoisePlan, PauliEvent, net_flip_probability

#: consecutive batches share a plane pass up to this many (trial, branch)
#: columns: 1024 words (8 KB) per plane row
_PASS_COLUMNS = 1 << 16

#: a pass widens its active prefix in at most this many steps, each one
#: fill of the newly joined slots from the reference block, so a trial may
#: join a few layers before its first event
_JOIN_STEPS = 8

#: the dense kernel gathers up to about this many plane words (64 KB) per
#: row of a gate group's operands and controls at a time: every temporary
#: stays small (2^15 raised sweep-trials' peak memory by 1.9 MB and ran no
#: faster)
_GATE_CHUNK = 1 << 13

#: a superposition pass whose trials span two or more plane words runs the
#: deviation-tracked kernel when its events per joined trial are at most
#: this many per plane row. Its gathers grow with the deviating pairs, and
#: those with events per row, not per trial. Re-measured with the row
#: store, one pass of 2^16 columns (bb- and ft-hetero descent-only,
#: uniform-bb round trip, 9 runs each), deviation / dense time: at n=8
#: and 9, 0.43-0.77 from 1/41 to 1/55 and parity between 1/37 and 1/17;
#: at n=7, 0.75 at 1/41 (bb), 1.00 at 1/47 (ft) and 0.95-1.06 from 1/197
#: to 1/62 (uniform). A larger limit would lose at n=7, so it stays
_DEVIATION_EVENTS_PER_ROW = 1 / 40

#: rows a deviation-tracked pass's store starts with, row 0 the clean
#: pairs' zeros; it doubles whenever it is full
_DEVIATION_ROWS = 1 << 10

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


def _pack_span(rows: np.ndarray, cols: np.ndarray, height: int, C: int) -> np.ndarray:
    """Pack the bits at the distinct (row, column) pairs `rows`, `cols` of
    a (height, C) bit matrix like one span of C columns: C/64 words, or
    for C < 64 one word holding the C columns 64/C times."""
    span = np.zeros((height, (C + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(span, (rows, cols >> 6), np.uint64(1) << (cols & 63).astype(np.uint64))
    if C < 64:
        span *= np.uint64(sum(1 << (k * C) for k in range(64 // C)))
    return span


def _slot_columns(B: int) -> int:
    """Columns of each trial's slot in a pass of B branches: B, widened to
    a byte for B = 2, 4 (`_pack_span` tiles short spans, so the widened
    slot repeats its B columns), or one in sampled-basis mode (B = 1)."""
    return B if B == 1 else max(B, 8)


def _trial_units(words: np.ndarray, cols: int) -> tuple[np.ndarray, int]:
    """C-contiguous uint64 `words` as trial units along the first axis, and
    the shift from a slot of `cols` columns to its unit.

    A slot of 8 <= cols <= 64 columns is one uint{cols} unit and a wider
    one a row of cols/64 words, both at unit `slot`; a slot of one column
    is bit `slot & 7` of byte unit `slot >> 3`.
    """
    shift = 3 if cols == 1 else 0
    bits = cols << shift
    units = words.reshape(-1).view(f"<u{min(bits, 64) // 8}")
    if bits > 64:
        units = units.reshape(-1, bits // 64)
    return units, shift


def _gate_pass(layer, plane: np.ndarray, w: int) -> None:
    """Apply one compiled layer's gates in place to the active prefix
    `plane[:, :w]`.

    Each polarity group of controlled swaps costs a fixed number of numpy
    calls per chunk of `_GATE_CHUNK // w` gates: one gather of its operand
    and control rows, the swap mask, and one scatter of both operands. The
    layer-parallel rule keeps every operand off every other gate's
    operands and controls, so a chunk may read all its rows before it
    writes any.
    """
    groups, inverts = layer
    active = plane[:, :w]
    step = max(_GATE_CHUNK // w, 1)
    for rows, pols in groups:
        for lo in range(0, rows.shape[1], step):
            idx = rows[:, lo : lo + step]
            v = active[idx]  # operand a, operand b, then each control
            m = v[0] ^ v[1]
            for c, pol in zip(v[2:], pols):
                if not pol:
                    np.invert(c, out=c)
                m &= c
            v[:2] ^= m
            active[idx[:2]] = v[:2]
    for lo in range(0, inverts.size, step):
        idx = inverts[lo : lo + step]
        active[idx] = ~active[idx]


def _bernoulli_hits(rng: np.random.Generator, slots: int, q: float) -> np.ndarray:
    """Sorted positions in range(slots) hit by iid Bernoulli(q) trials.

    Gaps between hits are geometric, so the hits are the running sums of
    geometric draws minus one: exact, distinct by construction, and O(hits).
    Clipping gaps at slots + 1 changes no hit below `slots` and keeps the
    sums within int64 even for vanishing q.

    For q < 1/3, numpy's `Generator.geometric(q)` is the inversion
    ceil(-E / log1p(-q)) of a standard exponential E, with `log1p` taken
    on every draw. Dividing the same exponentials by -log1p(-q), computed
    once with the C library's `log1p` as numpy's sampler does, gives the
    same gaps from the same generator state at about half the cost; q >=
    1/3 keeps `geometric`, which searches there.
    """
    inversion = q < 1.0 / 3.0
    if inversion:
        scale = -math.log1p(-q)
        # the least float >= slots + 1: a gap clipped there ends the hits
        # just as one clipped at slots + 1 does
        clip = float(slots + 1)
        if clip < slots + 1:
            clip = math.nextafter(clip, math.inf)

    def gaps(expect: float) -> np.ndarray:
        m = int(expect + 5.0 * math.sqrt(expect)) + 16
        if not inversion:
            return np.minimum(rng.geometric(q, m), slots + 1)
        drawn = rng.standard_exponential(m)
        drawn /= scale
        np.ceil(drawn, out=drawn)
        return np.minimum(drawn, clip, out=drawn).astype(np.int64)

    hits = np.cumsum(gaps(slots * q)) - 1
    while hits[-1] < slots:
        more = np.cumsum(gaps((slots - hits[-1]) * q)) + hits[-1]
        hits = np.concatenate([hits, more])
    return hits[: np.searchsorted(hits, slots)]


class _NoiseClass:
    """One flip-probability class of an engine's noise plan: its net flip
    probability `q`, its `slots` per trial, and their event `cells`.

    The class holds its segments, one per (noise step, live group, X or Z):
    each one's `base` cell `(layer * 2 + is_z) * qubits`, and its group's
    `start` and `size` in `pool`, the qubits of every group in turn. Slot k
    of a segment is qubit k of its group. The cells are built on the first
    batch that hits the class, so a class no batch hits never builds them.
    """

    __slots__ = ("q", "slots", "_segments", "_cells")

    def __init__(self, q: float, base, start, size, pool: np.ndarray):
        self.q = q
        self.slots = int(size.sum())
        self._segments = base, start, size, pool
        self._cells = None

    @property
    def cells(self) -> np.ndarray:
        """Each slot's event cell, `(layer * 2 + is_z) * qubits + qubit`."""
        if self._cells is None:
            base, start, size, pool = self._segments
            ends = np.cumsum(size)
            slot = np.arange(ends[-1]) + np.repeat(start - (ends - size), size)
            self._cells = np.repeat(base, size) + pool[slot]
        return self._cells


class _DeviationStore:
    """The deviations of a deviation-tracked pass: each (row, joined trial)
    pair's XOR against the reference block, stored only for the pairs that
    have deviated.

    `index` holds one int32 per pair: 0 while the pair has never deviated,
    else its row of `rows`, a (K, S) uint64 store that doubles when full.
    Row 0 stays all zero, so a clean pair reads zeros with no branch. A
    pair takes a row when its deviation first becomes nonzero and keeps it
    for the rest of the pass, even if the deviation returns to zero.
    """

    __slots__ = ("index", "rows", "used")

    def __init__(self, pairs: int, span: int):
        self.index = np.zeros(pairs, dtype=np.int32)
        self.rows = np.zeros((_DEVIATION_ROWS, span), dtype=np.uint64)
        self.used = 1  # row 0 is the clean pairs' zeros

    def read(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The store rows of `pairs` and a copy of their deviations."""
        i = self.index.take(pairs)
        return i, self.rows.take(i, axis=0)

    def write(self, pairs, i, values, fresh) -> None:
        """Set the deviations of the distinct `pairs`, whose store rows `read`
        gave as `i`, to `values`. The pairs where `fresh` is set get a new
        row first; every other pair of row 0 must be written zeros."""
        new = np.flatnonzero(fresh)
        if new.size:
            start, self.used = self.used, self.used + new.size
            if self.used > self.rows.shape[0]:
                self._grow(start)
            i[new] = np.arange(start, self.used, dtype=np.int32)
            self.index[pairs[new]] = i[new]
        self.rows[i] = values

    def _grow(self, live: int) -> None:
        """Double the store until it holds `used` rows, keeping the first
        `live`; rows past them are written before they are read."""
        cap = self.rows.shape[0]
        while cap < self.used:
            cap *= 2
        grown = np.empty((cap, self.rows.shape[1]), dtype=np.uint64)
        grown[:live] = self.rows[:live]
        self.rows = grown


class PlaneEngine:
    """Batched trajectory runner for one schedule and noise model."""

    def __init__(
        self,
        schedule: Schedule,
        noise: NoiseModel | None,
        address_mode: str = "superposition",
    ):
        self.schedule = schedule

        if address_mode not in ("superposition", "basis"):
            raise ValueError(f"unknown address mode {address_mode!r}")
        # sampled-basis mode: one fresh address per trial; phase errors
        # become global and are undercounted in this mode
        self.sampled_basis = address_mode == "basis"
        self.branch_count = 1 if self.sampled_basis else 1 << schedule.n

        self._noise_layers = self._compile_noise(noise)
        # built by `_prepare` on the first pass that has an event
        self._layers = self._maps = self._init_span = self._readout = None

    def _compile_noise(self, noise: NoiseModel | None) -> set[int]:
        """Pool the plan's (noise step, live group, X or Z) segments by their
        net flip probability q; returns the layers where events can land.

        One `_NoiseClass` per q, in order of first appearance, whose slots
        of one trial run segment after segment in (step, group, X before Z)
        order and each group's qubits in order. Both orders fix the draws.
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
        base = (layer[step_i[seg_order]] * 2 + is_z[seg_order]) * nq
        split = np.flatnonzero(np.diff(rank[seg_order])) + 1
        self._classes = [
            _NoiseClass(q, *segments, pool)
            for q, *segments in zip(values[by_first].tolist(), np.split(base, split),
                                    np.split(start[g], split), np.split(size[g], split))
        ]
        return set(layer[step_i].tolist())

    def _compile(self, keep: set[int]) -> tuple[list[tuple], dict[int, np.ndarray]]:
        """Each layer's gates on physical plane rows, and the logical-to-
        physical row map after each layer in `keep`.

        A layer compiles to `(groups, inverts)`: its controlled swaps
        grouped by their control polarities, and the rows it inverts. A
        group is `(rows, polarities)`, with one column per swap in the
        int64 array `rows`: operand a, operand b, then each control, whose
        polarities are `polarities` in turn. Both kernels run these groups.

        A plain swap relabels two rows instead of moving their data. Swaps
        are unconditional, so the relabelling is the same in every pass:
        it folds into the row map here and never reaches the plane. The
        layers' gate tables are sorted once, all together, into each
        layer's parts: a one-control swap's polarity (0, 1), a two-control
        swap's 2 + 2 p0 + p1 (2-5), the plain swaps (6), the inverts (7)
        and the copies of a 0 (8). Then each layer costs one gather of its
        qubits' rows, one copy per part and the row swaps.
        """
        T = GateTable
        tables = [layer.table for layer in self.schedule.layers]
        rows = np.concatenate(tables)
        p0, p1 = rows[:, T.P0], rows[:, T.P1]
        code = np.choose(rows[:, T.KIND], [6, p0, 2 + 2 * p0 + p1, 7, 8 - rows[:, T.DATA]])
        ends = np.cumsum([len(t) for t in tables])
        key = np.repeat(np.arange(ends.size) * 9, np.diff(ends, prepend=0)) + code
        order = np.argsort(key, kind="stable")  # each part keeps its gates' order
        key = key[order]
        qubits = rows[order, T.A:T.C1 + 1]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        # each part's (layer * 9 + code, first row, end row) in sorted order
        parts = zip(key[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), key.size])
        none = np.empty(0, dtype=np.int64)
        row = np.arange(self.schedule.qubit_count)
        layers, maps = [], {}
        lo = 0
        part = next(parts, None)
        for li, hi in enumerate(ends.tolist()):
            # rows before the layer's swaps (no other gate shares their
            # qubits); a -1 entry reads the last row and is never used
            phys = row[qubits[lo:hi]]
            groups, inverts = [], none
            while part is not None and part[1] < hi:
                code, s, e = part[0] - 9 * li, part[1] - lo, part[2] - lo
                if code < 2:
                    groups.append((phys[s:e, :3].T.copy(), (code,)))
                elif code < 6:
                    groups.append((phys[s:e, :4].T.copy(), divmod(code - 2, 2)))
                elif code == 6:
                    swapped = qubits[lo + s : lo + e]
                    row[swapped[:, 0]], row[swapped[:, 1]] = phys[s:e, 1], phys[s:e, 0]
                elif code == 7:
                    inverts = phys[s:e, 0].copy()
                part = next(parts, None)
            layers.append((groups, inverts))
            if li in keep:
                maps[li] = row.copy()
            lo = hi
        return layers, maps

    def _prepare(self, layers: Iterable[int] = ()) -> None:
        """Compile the layers, with the row maps after the noise layers, the
        last layer and `layers`, and the superposition span, on the first
        pass that has an event: a pass with none needs none of them."""
        keep = self._noise_layers | {len(self.schedule.layers) - 1} | set(layers)
        if self._layers is None:
            self._layers, self._maps = self._compile(keep)
            if not self.sampled_basis:
                # one trial's span of B columns, and its readout
                self._init_span, self._readout = self._span(np.arange(self.branch_count))
        elif not keep <= self._maps.keys():
            self._maps.update(self._compile(keep - self._maps.keys())[1])

    def _span(self, addresses) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, list]]:
        """The noiseless block and the readout of a span of columns, column
        c holding addresses[c]: `(block, (read_rows, care, word_rows))`.

        The block holds each column's initial word, packed by `_pack_span`
        from the schedule's set (qubit, column) pairs. For each distinct
        output-mask qubit (`read_rows`), `care` marks the columns whose mask
        holds it, packed the same way: every trial's span of a pass plane,
        and its reference block, line up with that pattern. `word_rows`
        lists, for each word of the span, the read rows whose `care` is
        nonzero there: a leaf's row covers one branch, so one word, and a
        router's the branches below it. Both read the schedule's address
        map for all the columns at once (`Schedule.set_cells`,
        `Schedule.output_masks`)."""
        sched = self.schedule
        C = len(addresses)
        block = _pack_span(*sched.set_cells(addresses), sched.qubit_count, C)
        masks = sched.output_masks(addresses)
        read_rows, slot = np.unique(masks.reshape(-1), return_inverse=True)
        care = _pack_span(slot, np.repeat(np.arange(C), masks.shape[1]), read_rows.size, C)
        return block, (read_rows, care, [np.flatnonzero(words) for words in care.T])

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
        cells, count = np.unique(np.array(
            [(li * 2 + (ev.kind == "Z")) * nq + ev.qubit
             for li, events in events_by_layer.items() for ev in events], dtype=np.int64),
            return_counts=True)
        cells = cells[count % 2 == 1]  # a repeated event cancels in pairs
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
        n_layers = len(self._layers)
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
        S = block.shape[1]
        cols = _slot_columns(B)
        ref_slots = S * 64 // cols

        # join steps: after the gates of layer join[k] the active prefix
        # grows to width[k] words; each step starts at a new first layer
        firsts = first[order]
        starts = np.flatnonzero(np.diff(firsts, prepend=-1))
        steps = starts[np.diff(starts * _JOIN_STEPS // order.size, prepend=-1) > 0]
        join = firsts[steps].tolist()
        width = (((ref_slots + np.append(steps[1:], order.size)) * cols + 63) // 64).tolist()
        W = width[-1]

        plane = np.empty((nq, W), dtype=np.uint64)
        plane[:, :S] = block
        blocks = plane.reshape(nq, W // S, S)
        sign = np.zeros(W, dtype=np.uint64)
        units, shift = _trial_units(plane, cols)
        sign_units = _trial_units(sign, cols)[0]
        U = sign_units.shape[0]  # units per plane row
        whole = ~units.dtype.type(0)
        slot_of = np.empty(total, dtype=np.int64)
        slot_of[order] = np.arange(ref_slots, ref_slots + order.size)

        w, step = S, 0
        for li, layer in enumerate(self._layers):
            _gate_pass(layer, plane, w)
            if step < len(join) and join[step] == li:
                # copy the block out first: broadcasting it from a view of
                # the same plane would buffer the whole fill
                blocks[:, w // S : width[step] // S] = plane[:, :S].copy()[:, None, :]
                w = width[step]
                step += 1
            if bounds[2 * li] == bounds[2 * li + 2]:
                continue
            row_units = maps[li] * U  # each logical qubit's first unit
            # X flips of this layer, then Z phases read from the flipped plane
            for is_z in (0, 1):
                lo, hi = bounds[2 * li + is_z], bounds[2 * li + is_z + 1]
                if lo == hi:
                    continue
                unit = slot_of.take(trial[lo:hi])
                if shift:  # each slot's bit in its byte
                    bit = np.left_shift(1, unit & 7).astype(np.uint8)
                    unit >>= shift
                key = row_units.take(cell[lo:hi] - (2 * li + is_z) * nq)
                key += unit
                if is_z:
                    phase = units[key]
                    if shift:
                        phase &= bit
                    np.bitwise_xor.at(sign_units, unit, phase)
                elif shift:
                    # flips that share a byte are adjacent: each qubit's run
                    # is sorted by trial, and trials hold their slots in order
                    starts = np.flatnonzero(np.diff(key, prepend=-1))
                    key = key[starts]
                    units[key] ^= np.bitwise_or.reduceat(bit, starts)
                else:
                    units[key] ^= whole

        fids[order] = self._fidelities(plane, maps[n_layers - 1], sign, order.size, readout, cols)
        return fids

    def _run_deviations(self, cell, trial, bounds, joined) -> np.ndarray:
        """The deviation-tracked form of a superposition pass: the same
        fidelities as the dense plane from the decoded, sorted events, for
        passes whose joined trials carry few events.

        Each joined trial (one with an event) keeps only its XOR against
        the reference block, whose span of S >= 2 words runs densely. The
        deviations live in a `_DeviationStore`, which holds a row only for
        a (row, joined trial) pair that has deviated, so no trial is copied
        in and the memory follows the deviating pairs. A flag per pair
        marks the pairs that may deviate. Each group of a layer's
        controlled swaps costs a fixed number of numpy calls: the
        reference's swap, then a gather and a scatter of only the pairs
        where an operand or a control is flagged. An inversion acts on the
        reference alone, since it leaves every XOR as it was. An X event
        flips its trial's whole span, and a Z event reads its row's value
        as deviation ^ reference. The readout compares only the flagged
        read rows: a clean pair reads exactly its ideal bits.
        """
        nq = self.schedule.qubit_count
        n_layers = len(self._layers)
        ref = self._init_span.copy()
        S = ref.shape[1]
        T = np.count_nonzero(joined)
        slot = (np.cumsum(joined) - 1)[trial]  # each event's joined trial
        dev = _DeviationStore(nq * T, S)  # row r, trial t at pair r * T + t
        dirty = np.zeros(nq * T, dtype=bool)
        flags = dirty.reshape(nq, T)
        sign = np.zeros((T, S), dtype=np.uint64)
        for li, (swaps, inverts) in enumerate(self._layers):
            for rows, pols in swaps:
                a, b, *cs = rows
                controls = list(zip(cs, pols))
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
                    ia, da = dev.read(fa)
                    ib, db = dev.read(fb)
                    # how each pair's swap mask differs from the reference's
                    dm = da ^ db
                    dm ^= x.take(g, axis=0)
                    for (c, pol), rc in zip(controls, rcs):
                        vc = dev.read(c[g] * T + t)[1]
                        vc ^= rc.take(g, axis=0)
                        dm &= vc if pol else ~vc
                    dm ^= m.take(g, axis=0)
                    da ^= dm
                    db ^= dm
                    nza, nzb = da.any(axis=1), db.any(axis=1)
                    dirty[fa], dirty[fb] = nza, nzb
                    dev.write(fa, ia, da, nza & (ia == 0))
                    dev.write(fb, ib, db, nzb & (ib == 0))
                ra ^= m
                rb ^= m
                ref[a], ref[b] = ra, rb
            if inverts.size:
                ref[inverts] = ~ref[inverts]
            lo, mid, hi = bounds[2 * li : 2 * li + 3]
            if lo < mid:  # X flips: each trial's whole span
                rows = self._maps[li].take(cell[lo:mid] - 2 * li * nq)
                f = rows * T + slot[lo:mid]
                i, d = dev.read(f)
                dev.write(f, i, ~d, i == 0)
                dirty[f] = True
            if mid < hi:  # Z phases, read from the flipped state
                rows = self._maps[li].take(cell[mid:hi] - (2 * li + 1) * nq)
                f = rows * T + slot[mid:hi]
                np.bitwise_xor.at(sign, slot[mid:hi], dev.read(f)[1] ^ ref[rows])

        read_rows, care, _ = self._readout
        phys = self._maps[n_layers - 1][read_rows]
        hit = np.flatnonzero(flags.take(phys, axis=0))
        r = hit // T
        t = hit - r * T
        bad = np.zeros((T, S), dtype=np.uint64)
        np.bitwise_or.at(bad, t, dev.read(phys[r] * T + t)[1] & care.take(r, axis=0))
        fids = np.ones(joined.size)
        fids[joined] = self._overlap_squares(bad, sign, T, self.branch_count)
        return fids

    def _sample_events(
        self, rng: np.random.Generator, n_trials: int, total: int, offset: int
    ) -> list[np.ndarray]:
        """Draw one batch's noise: one Bernoulli process per flip-probability
        class over its `slots * n_trials` slots, as one unsorted array of
        event codes `cells[j] * total + offset + trial` per class that the
        batch hits.

        The batch's trials are trials `offset..` of a pass of `total`.
        Slot `j * n_trials + t` is slot j of the class's cells in trial t.
        """
        codes = []
        for noise_class in self._classes:
            hits = _bernoulli_hits(rng, noise_class.slots * n_trials, noise_class.q)
            if not hits.size:
                continue
            j = hits // n_trials
            hits -= j * n_trials  # the trial
            hits += offset
            code = noise_class.cells[j]
            code *= total
            code += hits
            codes.append(code)
        return codes

    def _ideal(self, plane: np.ndarray, row: np.ndarray, readout) -> np.ndarray:
        """Each read row's noiseless final bits from the pass's reference
        block, under `care`: column c's ideal bit at each qubit of its
        output mask, packed like `care`."""
        read_rows, care, _ = readout
        return plane[row[read_rows], : care.shape[1]] & care

    def _fidelities(self, plane, row, sign, active: int, readout, cols: int) -> np.ndarray:
        """Fidelities of the `active` trials after the reference block, in
        plane order, each in a slot of `cols` columns."""
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
        return self._overlap_squares(bad, sign[S:], active, cols)

    def _overlap_squares(
        self, bad: np.ndarray, sign: np.ndarray, active: int, cols: int
    ) -> np.ndarray:
        """Each of `active` trials' squared overlap with the noiseless run,
        from the words of their spans in turn, a slot of `cols` columns
        each whose first B columns are its branches: `bad` marks the
        branches that read a wrong bit, `sign` those whose sign flipped."""
        B = self.branch_count
        n = active * cols
        good = _unpack_bits_lsb(~bad.reshape(-1), n).reshape(active, cols)[:, :B]
        flipped = _unpack_bits_lsb(sign.reshape(-1), n).reshape(active, cols)[:, :B] & good
        # every weight is 2^-n, so this is the per-branch overlap sum exactly
        net = good.sum(axis=1, dtype=np.int64) - 2 * flipped.sum(axis=1, dtype=np.int64)
        overlap = net * (1.0 / B)
        return overlap**2
