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

Event codes: `_run_codes`, the one method that runs a plane pass, takes
the pass's error events as int64 codes cell * total + trial, in any order,
with cell (layer * 2 + is_z) * qubits + qubit, and draws nothing. It
sorts them once, so each layer's X flips and then its Z phases are two
contiguous runs that the gate loop applies right after that layer's gates,
and decodes cell and trial with one `//` each (`divmod` and `%` by a
scalar cost several times more). The test hook `run_events` codes the
same given events on every trial; the sampler draws them.

Noise sampling: every (noise step, live group, X or Z) segment of the plan
is cut down to its live cells and pooled, once at construction, by its net
flip probability q, into one class per q; a class builds its table of
event cells on the first batch that hits it. A batch draws all its noise
up front, one Bernoulli(q) process per class over the class's (slot,
trial) pairs, by summing geometric gaps between hits (the rare-error
sampling of Stim, Gidney, Quantum 5, 497 (2021)): exact iid flips at a
cost proportional to the number of hits, every one of them an event of
the pass. For q < 1/3 the gaps come from the inversion that numpy's
`Generator.geometric` itself uses, ceil(E / -log1p(-q)) of standard
exponentials E, with the logarithm taken once per class rather than once
per draw: the same gaps from the same stream at about half the cost.

Events that only add a global phase: their cells are dead, and the
classes leave them out, so they are never drawn, sorted, decoded or
applied. An X flip that lands after the layer of its qubit's last gate (a
swap's operand or control, an X, a data copy), on a qubit that no readout
table holds (`Schedule.unread_from`, the qubit's X horizon), is read by
no gate and by no readout. It flips that qubit in every branch of its
trial, so a later Z phase there flips the sign of the branches where the
qubit is 0 instead of those where it is 1: the two differ by a sign on
the whole trial, which the squared overlap (sum_b w_b s_b g_b)^2 ignores
bit for bit. In sampled-basis mode every Z phase is dead too: with one
branch per trial (B = 1) each phase is global. This is the locality
behind bucket-brigade noise resilience (Hann et al., PRX Quantum 2,
020311 (2021)): the lower levels of a heterogeneous tree idle for most of
a query, and most of their X events land on such qubits. Each group's
qubits are pooled by descending X horizon, so a segment's live X cells
are a prefix of its group. Leaving the dead cells out moves the other
cells' slots, so the draws differ from a sampler that draws every cell,
but each live cell still flips iid with its own q, and the fidelity
distribution is the same. `_run_codes` and `run_events` still apply
whatever events they are given.

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
and one `xor.at` into the trials' sign units. In sampled-basis mode a
unit is the byte of 8 one-column trials, whose slots follow join order,
not trial order: a layer's flips go in with one `xor.at` of each trial's
bit, and no phase is applied, since with one branch per trial (B = 1) no
sign changes a fidelity.

A pass simulates only the trials that leave the noiseless path. A trial's
columns equal the noiseless run until its first X flip: a Z phase changes
no bit, only signs (the reference frame of Stim, Gidney, Quantum 5, 497
(2021)). The layer of each trial's first X flip is known once the pass's
event codes are sorted, and `_run_codes` builds one trial plan from it for
both kernels: the join order of the trials with an X flip, by that layer,
one sign array indexed by trial, and one scoring tail. Each kernel returns
the joined trials' bad-branch words, and the tail squares each trial's
overlap from those words and the trial's signs. A trial that sees no X
flip is never simulated: it reads every bit right, so its fidelity is
exactly 1, or, if it has phases, the squared overlap of its signs alone.

The dense plane holds one reference block (one trial's packed span, run
without noise) followed by the joined trials in join order, and the gates
run on the active prefix only. Right after the gates of a trial's first X
layer, and before that layer's flips, the trial joins: the prefix grows
over its slot, copied in from the reference block, so the trials that
join at one layer take one fill. A slot that shares a plane word with an
earlier-joined trial's is filled with that word, early; that is exact,
since until its first X flip a trial is a copy of the reference. A Z
phase reads the trial's own slot once the trial has joined, and the
reference block's slot 0 before, which holds the same bits; it flips the
trial's signs. Word k of the trial area starts as word k % S of the block
of S words. Sampled-basis mode runs the same pass: its block holds one
noiseless column per joined trial, at the trials' own addresses in join
order, so the trial area is one tile of the block and each trial's column
starts as its own.

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
compares only the read rows that deviate. The trials with no X flip share
one more column that never deviates, so their Z phases read the reference
alone. It runs the same compiled polarity groups as the dense kernel. The
dense plane stays for every other pass: with one trial per word or less
(n <= 6), in sampled-basis mode, on heavy passes and on passes with no X
flip, its whole-row operations beat the per-pair gathers (measured past
about 1/50 events per row at n=7, and past 1/37 to 1/17 at n=8 and 9).
Both kernels give the same fidelities bit for bit.

Swaps are unconditional, so they never reach the plane: each layer
compiles once to gates on physical plane rows, and the swaps fold into a
static logical-to-physical row map (int32), kept at the layers where live
noise lands and at the last layer. `run_events` adds the maps of its own
layers. The compile reads the layers' gate tables (`circuits.GateTable`),
never `Layer.gates`: it sorts all the tables once into each layer's
polarity groups, plain swaps and inverts, so a layer costs a fixed number
of numpy calls. A layer compiles straight to its controlled swaps grouped by
control polarities, as index arrays, plus the rows it inverts; the dense kernel
(`_gate_pass`) runs each group with a fixed number of numpy calls (one
gather, the swap mask, one scatter) on chunks of at most `_GATE_CHUNK`
plane words. The layers and the maps are compiled on the first pass that
sees an event, and the superposition block and readout on the first
superposition pass that needs them, so an engine whose trials see no
event compiles nothing.

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
the trials. The dense plane reads out both address modes through
`_bad_branches`, with the `_span` of the block's column addresses: the 2^n
addresses, compiled once, or in sampled-basis mode the joined trials'
addresses, one column each, where B = 1 makes the squared overlap exactly
the good bit.
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
from functools import cached_property
from typing import Iterable

import numpy as np

from .circuits import GateTable, Schedule
from .noise import NoiseModel, NoisePlan, PauliEvent, net_flip_probability

#: consecutive batches share a plane pass up to this many (trial, branch)
#: columns: 1024 words (8 KB) per plane row
_PASS_COLUMNS = 1 << 16

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


def _unpack_bits_lsb(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits of a uint64 vector, bit 64w + i from bit i
    of word w."""
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
    probability `q`, its `slots` per trial and their event `cells`, each a
    live cell, where an event can change a fidelity.

    The class holds its segments, one per nonempty (noise step, live group,
    X or Z): each one's `base` cell `(layer * 2 + is_z) * qubits`, and its
    group's `start` and its own `size` in `pool`, which holds each group's
    qubits by descending X horizon. Slot k of a segment is the group's
    qubit k there: an X segment is the prefix of the group's qubits that a
    later gate or the readout still reads, a Z segment the whole group.
    The cells are built on the first batch that hits the class, so a class
    no batch hits never builds them.
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
        # sampled-basis mode (one branch): one fresh address per trial;
        # phase errors become global and are undercounted in this mode
        self.branch_count = 1 if address_mode == "basis" else 1 << schedule.n

        self._noise_layers = self._compile_noise(noise)
        # built by `_prepare` on the first pass that has an event
        self._layers = self._maps = None

    def _compile_noise(self, noise: NoiseModel | None) -> set[int]:
        """Pool the plan's live cells by their net flip probability q;
        returns the layers where live events land.

        A cell is dead when its event only adds a global phase (see the
        module docstring): an X flip after the layer that its qubit's X
        horizon (`Schedule.unread_from`) names or a later one, and in
        sampled-basis mode every Z phase. The pool holds each group's
        qubits by descending X horizon, ties in group order, so the live X
        slots of a (noise step, group) segment are a prefix of the group,
        whose length one `searchsorted` gives for the whole step x group
        grid. Z segments stay whole in superposition mode and go in
        sampled-basis mode; empty segments go too. One `_NoiseClass` per
        q, in order of first appearance, whose slots of one trial run
        segment after segment in (step, group, X before Z) order. Both
        orders fix the draws.
        """
        self._classes = []
        if noise is None:
            return set()
        plan = NoisePlan(self.schedule, noise)
        groups = plan.groups
        if not groups:
            return set()
        nq, n_layers = self.schedule.qubit_count, len(self.schedule.layers)
        size = np.array([g.qubits.size for g in groups], dtype=np.int64)
        start = np.cumsum(size) - size
        # sort key: group * stride + n_layers - horizon, with the horizon in
        # [-1, n_layers], so the groups' keys never overlap
        stride = n_layers + 2
        head = np.arange(size.size) * stride + n_layers
        qubits = np.concatenate([g.qubits for g in groups])
        key = np.repeat(head, size) - self.schedule.unread_from()[qubits]
        order = np.argsort(key, kind="stable")
        pool, key = qubits[order], key[order]
        layer = plan.step_layers
        # (step, group, is_z) slots: X on the qubits whose horizon is past
        # the step's layer, Z on the whole group or, in sampled-basis mode,
        # on none
        x_size = np.searchsorted(key, head - layer[:, None]) - start
        z_size = np.broadcast_to(0 if self.branch_count == 1 else size, x_size.shape)
        seg_size = np.stack([x_size, z_size], axis=-1)
        # q of each distinct (rate, rounds): one array call per rounds value
        p_vals, p_idx = np.unique([(g.px, g.pz) for g in groups], return_inverse=True)
        r_vals, r_idx = np.unique(plan.step_rounds, return_inverse=True)
        flip = np.stack([net_flip_probability(p_vals, r) for r in r_vals.tolist()], axis=1)
        q = flip[p_idx.reshape(1, -1, 2), r_idx.reshape(-1, 1, 1)]  # (step, group, is_z)
        live = np.array([g.first_active for g in groups]) <= layer[:, None]
        step_i, group_i, is_z = np.nonzero(live[:, :, None] & (q > 0.0) & (seg_size > 0))
        if not step_i.size:
            return set()
        q = q[step_i, group_i, is_z]
        seg_size = seg_size[step_i, group_i, is_z]
        values, first, cls = np.unique(q, return_index=True, return_inverse=True)
        # classes in order of first appearance, and the segments class by
        # class, each class's in plan order (a stable sort)
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.size)
        rank = rank[cls.reshape(-1)]
        seg_order = np.argsort(rank, kind="stable")
        base = (layer[step_i[seg_order]] * 2 + is_z[seg_order]) * nq
        start, seg_size = start[group_i[seg_order]], seg_size[seg_order]
        # plain slices: np.split costs far more per call
        cut = [0, *(np.flatnonzero(np.diff(rank[seg_order])) + 1).tolist(), seg_order.size]
        self._classes = [
            _NoiseClass(q, base[lo:hi], start[lo:hi], seg_size[lo:hi], pool)
            for q, lo, hi in zip(values[by_first].tolist(), cut, cut[1:])
        ]
        return set(layer[step_i].tolist())

    def _compile(self, keep: set[int]) -> tuple[list[tuple], dict[int, np.ndarray]]:
        """Each layer's gates on physical plane rows, and the logical-to-
        physical row map after each layer in `keep`, as int32: its users
        widen it wherever they multiply it by a unit or trial count.

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
                maps[li] = row.astype(np.int32)
            lo = hi
        return layers, maps

    def _prepare(self, layers: Iterable[int] = ()) -> None:
        """Compile the layers, with the row maps after the noise layers, the
        last layer and `layers`, on the first pass that has an event: a
        pass with none needs none of them."""
        keep = self._noise_layers | {len(self.schedule.layers) - 1} | set(layers)
        if self._layers is None:
            self._layers, self._maps = self._compile(keep)
        elif not keep <= self._maps.keys():
            self._maps.update(self._compile(keep - self._maps.keys())[1])

    @cached_property
    def _superposition(self) -> tuple[np.ndarray, tuple]:
        """One superposition trial's block of B columns and its readout,
        `_span` of every address, built on the first pass that needs it."""
        return self._span(np.arange(self.branch_count))

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
        and so does every batch of one branch per trial (sampled-basis
        mode), whose plane rows grow with the ~6 * 2^n qubits. Both modes
        run the same pass shape, which joins only the trials with an X flip.
        Each batch draws from its own generator, so the grouping changes
        no fidelity.
        """
        out, group, cols = [np.empty(0)], [], 0
        for rng, n_trials in batches:
            span = n_trials * self.branch_count
            if group and (self.branch_count == 1 or cols + span > _PASS_COLUMNS):
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
        if self.branch_count == 1:
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
            if self.branch_count == 1:
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

        The pass first builds its trial plan, the same for both kernels:
        each trial's first X layer, the join order `order` of the trials
        that have an X flip (by that layer), and one sign array indexed by
        trial, one trial unit each, into which every Z phase flips. A light
        superposition pass whose trial spans are two or more words runs
        `_run_deviations`, and every other pass `_run_dense`; either one
        returns the bad-branch words of the joined trials, in join order,
        and one scoring tail squares each trial's overlap. A trial with no
        X flip is never simulated: its fidelity is exactly 1, or the
        squared overlap of its signs alone when it has phases. When
        `trial_addresses` gives each trial's address (sampled-basis mode),
        the dense pass runs the joined trials at their own addresses. The
        pass sorts `codes` in place and then spends them.
        """
        if not codes.size:
            # every trial is the noiseless run: fidelity exactly 1
            return np.ones(total)
        self._prepare()
        nq = self.schedule.qubit_count
        B = self.branch_count
        n_layers = len(self._layers)
        # sorted, each layer's X flips and then its Z phases are contiguous;
        # decoded once with // (divmod and % cost far more)
        codes.sort()
        bounds = np.searchsorted(codes, np.arange(2 * n_layers + 1) * (nq * total))
        cell = codes // total
        trial = np.subtract(codes, cell * total, out=codes)

        # each trial's first X layer (n_layers for none). Last layer first,
        # so each trial keeps its earliest; segment by segment, with no
        # temporary the size of all the codes
        first = np.full(total, n_layers, dtype=np.int64)
        for li in range(n_layers - 1, -1, -1):
            first[trial[bounds[2 * li] : bounds[2 * li + 1]]] = li
        order = np.argsort(first, kind="stable")[: np.count_nonzero(first < n_layers)]
        if B == 1 and not order.size:
            # with one branch per trial a phase is global: all noiseless
            return np.ones(total)
        # each trial's signs, one trial unit per trial; with one branch per
        # trial (B = 1) no sign changes a fidelity, and no phase is drawn
        cols = _slot_columns(B)
        unit = _trial_units(np.zeros((cols + 63) // 64, dtype=np.uint64), cols)[0]
        sign = np.zeros((total, *unit.shape[1:]), dtype=unit.dtype)
        # trial spans of two or more plane words, and some X flip: a pass
        # with none has no deviation to track
        if B >= 128 and order.size and cell.size <= _DEVIATION_EVENTS_PER_ROW * order.size * nq:
            bad = self._run_deviations(cell, trial, bounds, order, sign)
        else:
            bad = self._run_dense(cell, trial, bounds, first[order], order, sign, trial_addresses)

        def signs(trials):
            """The signs of `trials`, packed in consecutive slots."""
            words = np.zeros((trials.size * cols + 63) // 64, dtype=np.uint64)
            if B > 1:  # else a unit holds 8 slots, and every sign is 0
                _trial_units(words, cols)[0][: trials.size] = sign[trials]
            return words

        fids = np.ones(total)
        fids[order] = self._overlap_squares(bad, signs(order), order.size, cols)
        # a trial with phases and no X flip reads every bit right
        phased = np.flatnonzero(sign.reshape(total, -1).any(axis=1) & (first == n_layers))
        words = signs(phased)
        fids[phased] = self._overlap_squares(np.zeros_like(words), words, phased.size, cols)
        return fids

    def _run_dense(self, cell, trial, bounds, firsts, order, sign, trial_addresses) -> np.ndarray:
        """The dense plane pass of the decoded, sorted events: the bad-branch
        words of the joined trials `order`, whose first X layers are
        `firsts`; each Z phase flips its trial's unit of `sign`.

        The plane holds the reference block, then each joined trial's slot
        in join order. Right after the gates of a trial's first X layer, and
        before that layer's flips, the trial joins: the active prefix grows
        over its slot, which is copied in from the reference block. A slot
        that shares a plane word with an earlier-joined trial is copied in
        with that word, so it may be filled early; that is exact, since
        until its first X flip a trial is a copy of the reference. A Z
        phase reads the trial's own slot once the trial has joined, and the
        reference block's slot 0 before, which holds the same bits. A pass
        with no X flip holds the reference block alone, and reads none.
        """
        nq = self.schedule.qubit_count
        maps = self._maps
        # the block's column j is the noiseless run of joined trial j's
        # address, or of branch j of every trial
        if trial_addresses is None:
            block, readout = self._superposition
        else:
            block, readout = self._span(trial_addresses[order])
        S = block.shape[1]
        cols = _slot_columns(self.branch_count)
        ref_slots = S * 64 // cols
        # after the gates of layer li, the trials joined so far, ends[li],
        # and the active prefix, width[li] words
        ends = np.searchsorted(firsts, np.arange(len(self._layers)), side="right")
        width = (((ref_slots + ends) * cols + 63) // 64).tolist()
        ends = ends.tolist()
        W = width[-1]

        plane = np.empty((nq, W), dtype=np.uint64)
        plane[:, :S] = block
        blocks = plane.reshape(nq, W // S, S)
        units, shift = _trial_units(plane, cols)
        U = units.shape[0] // nq  # units per plane row
        whole = ~units.dtype.type(0)
        # each trial's slot, the reference's slot 0 until the trial joins
        slot_of = np.zeros(sign.shape[0], dtype=np.int64)

        w, joined = S, 0
        for li, layer in enumerate(self._layers):
            _gate_pass(layer, plane, w)
            if ends[li] > joined:
                # trial-area word k starts as block word k % S
                top = width[li]
                if top - w > S:
                    # whole tiles; copy the block out first: broadcasting it
                    # from a view of the same plane would buffer the fill
                    blocks[:, w // S : top // S] = plane[:, :S].copy()[:, None, :]
                else:  # within one tile, as all of a sampled-basis pass
                    plane[:, w:top] = plane[:, w % S : w % S + top - w]
                slot_of[order[joined : ends[li]]] = np.arange(ref_slots + joined,
                                                              ref_slots + ends[li])
                w, joined = top, ends[li]
            if bounds[2 * li] == bounds[2 * li + 2]:
                continue
            row_units = maps[li] * np.int64(U)  # each logical qubit's first unit
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
                    np.bitwise_xor.at(sign, trial[lo:hi], units[key])
                elif shift:
                    # one byte may take several trials' flips, each its bit
                    np.bitwise_xor.at(units, key, bit)
                else:
                    units[key] ^= whole
        if not order.size:
            return np.zeros(0, dtype=np.uint64)
        return self._bad_branches(plane, maps[len(self._layers) - 1], readout)

    def _run_deviations(self, cell, trial, bounds, order, sign) -> np.ndarray:
        """The deviation-tracked form of a superposition pass: the same
        bad-branch words of the joined trials `order` as `_run_dense`, from
        the decoded, sorted events, for passes whose joined trials carry
        few events; each Z phase flips its trial's unit of `sign`.

        Each joined trial keeps only its XOR against the reference block,
        whose span of S >= 2 words runs densely. The deviations live in a
        `_DeviationStore`, which holds a row only for a (row, column) pair
        that has deviated, so no trial is copied in and the memory follows
        the deviating pairs. Column j is joined trial j, and one more
        column, which no X flip reaches and so never deviates, takes the
        trials with no X flip. A flag per pair marks the pairs that may
        deviate. Each group of a layer's controlled swaps costs a fixed
        number of numpy calls: the reference's swap, then a gather and a
        scatter of only the pairs where an operand or a control is flagged.
        An inversion acts on the reference alone, since it leaves every XOR
        as it was. An X event flips its trial's whole span, and a Z event
        reads its row's value as deviation ^ reference, so a trial with no X
        flip reads the reference alone. The readout compares only the
        flagged read rows: a clean pair reads exactly its ideal bits.
        """
        nq = self.schedule.qubit_count
        n_layers = len(self._layers)
        ref = self._superposition[0].copy()
        S = ref.shape[1]
        T = order.size + 1  # the joined trials' columns, then the clean one
        column = np.full(sign.shape[0], order.size, dtype=np.int64)
        column[order] = np.arange(order.size)
        slot = column[trial]  # each event's column
        dev = _DeviationStore(nq * T, S)  # row r, column t at pair r * T + t
        dirty = np.zeros(nq * T, dtype=bool)
        flags = dirty.reshape(nq, T)
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
                f = rows * np.int64(T) + slot[lo:mid]
                i, d = dev.read(f)
                dev.write(f, i, ~d, i == 0)
                dirty[f] = True
            if mid < hi:  # Z phases, read from the flipped state
                rows = self._maps[li].take(cell[mid:hi] - (2 * li + 1) * nq)
                f = rows * np.int64(T) + slot[mid:hi]
                np.bitwise_xor.at(sign, trial[mid:hi], dev.read(f)[1] ^ ref[rows])

        read_rows, care, _ = self._superposition[1]
        phys = self._maps[n_layers - 1][read_rows]
        hit = np.flatnonzero(flags.take(phys, axis=0))
        r = hit // T
        t = hit - r * T
        bad = np.zeros((order.size, S), dtype=np.uint64)
        np.bitwise_or.at(bad, t, dev.read(phys[r] * np.int64(T) + t)[1] & care.take(r, axis=0))
        return bad

    def _sample_events(
        self, rng: np.random.Generator, n_trials: int, total: int, offset: int
    ) -> list[np.ndarray]:
        """Draw one batch's noise: one Bernoulli process per flip-probability
        class over its `slots * n_trials` slots, as one unsorted array of
        event codes `cells[j] * total + offset + trial` per class that the
        batch hits.

        The batch's trials are trials `offset..` of a pass of `total`.
        Slot `j * n_trials + t` is slot j of the class's cells in trial t.
        Every class cell is live, so every hit is an event of the pass.
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

    def _bad_branches(self, plane, row, readout) -> np.ndarray:
        """The bad-branch words of the trials after the reference block, in
        plane order: a branch is bad when any bit it reads differs from its
        ideal bit."""
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
        return bad

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
