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

Noise sampling: every (noise step, live group, X or Z) segment of the plan
is pooled, once at construction, by its net flip probability q. Each batch
then draws all its noise up front, one Bernoulli(q) process per class over
the class's (slot, trial) pairs, by summing geometric gaps between hits
(the rare-error sampling of Stim, Gidney, Quantum 5, 497 (2021)): exact
iid flips at a cost proportional to the number of hits. Each hit is
coded as one int64, ((layer * 2 + is_z) * qubits + qubit) * trials +
trial, and the batch's codes are sorted once, so each layer's X flips and
then its Z phases are two contiguous runs that the gate loop applies right
after that layer's gates.

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

Noiseless reference: the engine's own gate kernel (`_gate_pass`, the one
place that says what a compiled gate does to a plane) run without noise.
In superposition mode the 2^n initial words are packed as 2^n columns and
passed through every layer once at construction; each branch's ideal bits
are read off that plane at its output mask and kept as per-qubit packed
(care, ideal) patterns, so the readout compares whole plane words. In
sampled-basis mode each batch's initial plane gets the same noiseless pass
next to the noisy one. `Schedule.ideal_word` and `run_noiseless` stay the
independent per-address oracle that the tests compare against.
"""

from __future__ import annotations

import numpy as np

from .circuits import GateKind, Schedule
from .noise import NoiseModel, NoisePlan, PauliEvent, net_flip_probability

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


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


def _column_bits(plane: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bit `cols[k]` of plane row `rows[k]`, for every k, as uint64 0/1."""
    return (plane[rows, cols >> 6] >> (cols & 63).astype(np.uint64)) & np.uint64(1)


def _gate_pass(ops, plane: np.ndarray, row: np.ndarray, scratch: np.ndarray) -> None:
    """Apply one compiled layer's gates to a bit plane, in place.

    `row` maps each logical qubit to its plane row: a plain swap relabels
    two rows instead of moving their data. `scratch` is one row of space.
    """
    for op in ops:
        kind = op[0]
        if kind == "swap":
            a, b = row[op[1]], row[op[2]]
            row[op[1]], row[op[2]] = b, a
        elif kind == "cswap":
            controls, a, b = op[1], op[2], op[3]
            np.bitwise_xor(plane[row[a]], plane[row[b]], out=scratch)
            for cq, pol in controls:
                if pol:
                    np.bitwise_and(scratch, plane[row[cq]], out=scratch)
                else:
                    np.bitwise_and(scratch, ~plane[row[cq]], out=scratch)
            plane[row[a]] ^= scratch
            plane[row[b]] ^= scratch
        else:  # invert
            np.invert(plane[row[op[1]]], out=plane[row[op[1]]])


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
        self._ops = [self._compile_layer(layer) for layer in schedule.layers]

        if not self.sampled_basis:
            self._init_bits = _word_bits(
                [schedule.initial_word(a) for a in self.addresses], nq
            )
            self._init_plane = _pack_bits_lsb(self._init_bits)  # (nq, ceil(B/64))
            self._compile_readout()

        self._compile_noise(noise)

    def _compile_noise(self, noise: NoiseModel | None) -> None:
        """Pool the plan's (noise step, live group, X or Z) segments by their
        net flip probability q.

        Per class, `(q, key, start, offset)`: one row per segment, with the
        event key `layer * 2 + is_z`, the segment's start in `_pool` (the
        plan's group qubit arrays, concatenated) and the cumulative segment
        lengths (`offset[-1]` slots per trial).
        """
        self._classes = []
        if noise is None:
            return
        plan = NoisePlan(self.schedule, noise)
        groups = list(dict.fromkeys(g for step in plan.steps for g in step.groups))
        start_of = dict(zip(groups, np.cumsum([0] + [g.qubits.size for g in groups])))
        self._pool = np.concatenate([np.zeros(0, dtype=np.int64), *(g.qubits for g in groups)])
        rows: dict[float, list[tuple[int, int, int]]] = {}
        flip: dict[tuple[float, int], float] = {}  # q of each distinct (rate, rounds)
        for step in plan.steps:
            for g in step.groups:
                for is_z, p in ((0, g.px), (1, g.pz)):
                    q = flip.get((p, step.rounds))
                    if q is None:
                        q = flip[p, step.rounds] = net_flip_probability(p, step.rounds)
                    if q > 0.0:
                        seg = (step.layer * 2 + is_z, start_of[g], g.qubits.size)
                        rows.setdefault(q, []).append(seg)
        for q, segs in rows.items():
            key, start, size = (np.array(c, dtype=np.int64) for c in zip(*segs))
            offset = np.concatenate([[0], np.cumsum(size)])
            self._classes.append((q, key, start, offset))

    def _compile_readout(self) -> None:
        """Noiseless pass over the B initial branch columns, then the readout.

        For each distinct output-mask qubit (`_read_rows`), `_care` marks the
        branches whose mask holds it and `_ideal` their noiseless final bit
        there, packed like one trial's columns: B/64 words, or for B < 64
        one word holding the B columns 64/B times. Every trial's span of the
        batch plane lines up with that pattern.
        """
        B = self.branch_count
        ref = self._init_plane.copy()
        ref_row = self._noiseless_pass(ref)
        branch, qubit = self._mask_entries(self.addresses)
        bit = _column_bits(ref, ref_row[qubit], branch)

        self._read_rows, slot = np.unique(qubit, return_inverse=True)
        care = np.zeros((self._read_rows.size, B), dtype=bool)
        ideal = np.zeros_like(care)
        care[slot, branch] = True
        ideal[slot, branch] = bit
        reps = max(64 // B, 1)
        self._care = _pack_bits_lsb(np.tile(care, reps))
        self._ideal = _pack_bits_lsb(np.tile(ideal, reps))

    def _noiseless_pass(self, plane: np.ndarray) -> np.ndarray:
        """Run every layer on `plane` without noise, in place; returns the
        row of each logical qubit."""
        row = np.arange(self.schedule.qubit_count)
        scratch = np.empty(plane.shape[1], dtype=np.uint64)
        for ops in self._ops:
            _gate_pass(ops, plane, row, scratch)
        return row

    def _mask_entries(self, addresses) -> tuple[np.ndarray, np.ndarray]:
        """(column, qubit) of each output-mask qubit, column c holding
        addresses[c], flat and column by column."""
        masks = [self.schedule.output_mask(int(a)) for a in addresses]
        col = np.repeat(np.arange(len(masks)), [len(m) for m in masks])
        qubit = np.fromiter((q for m in masks for q in m), dtype=np.int64, count=col.size)
        return col, qubit

    @staticmethod
    def _compile_layer(layer):
        ops = []
        for g in layer.gates:
            if g.kind is GateKind.SWAP:
                ops.append(("swap", g.operands[0], g.operands[1]))
            elif g.kind in (GateKind.CSWAP, GateKind.CCSWAP):
                ops.append(("cswap", g.controls, g.operands[0], g.operands[1]))
            elif g.kind is GateKind.X:
                ops.append(("invert", g.operands[0]))
            elif g.kind is GateKind.CLASSICAL_CX:
                if g.data_bit:
                    ops.append(("invert", g.operands[0]))
            else:
                raise AssertionError(g.kind)
        return ops

    # -- execution -------------------------------------------------------

    def run(
        self,
        rng: np.random.Generator,
        n_trials: int,
        forced_events: dict[int, list[PauliEvent]] | None = None,
    ) -> np.ndarray:
        """Run `n_trials` trajectories; returns their fidelities.

        `forced_events` maps a layer index to Pauli events applied to all
        trials after that layer, replacing sampled noise (test hook).
        """
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        nq = self.schedule.qubit_count
        B = self.branch_count
        cols = n_trials * B
        width = (cols + 63) // 64

        trial_addresses = initial = None
        if self.sampled_basis:
            trial_addresses = rng.integers(0, 1 << self.schedule.n, size=n_trials)
            words = [self.schedule.initial_word(int(a)) for a in trial_addresses]
            plane = _pack_bits_lsb(_word_bits(words, nq))
            initial = plane.copy()
        elif B % 64 == 0:
            plane = np.tile(self._init_plane, (1, n_trials))
        else:
            tiled = np.tile(self._init_bits, (1, n_trials))  # (nq, cols)
            plane = _pack_bits_lsb(tiled)
        if plane.shape[1] < width:
            plane = np.pad(plane, ((0, 0), (0, width - plane.shape[1])))
        sign = np.zeros(width, dtype=np.uint64)
        row = np.arange(nq)

        # per-trial word spans (indices plus masks, zero-padded)
        spans_idx, spans_mask = self._trial_spans(n_trials, B, width)

        if forced_events is not None:
            codes = self._forced_events(forced_events, n_trials)
        else:
            codes = self._sample_events(rng, n_trials)
        # event code ((layer * 2 + is_z) * nq + qubit) * n_trials + trial, sorted
        bounds = np.searchsorted(codes, np.arange(2 * len(self._ops) + 1) * (nq * n_trials))

        plane_flat = plane.reshape(-1)
        scratch = np.empty(width, dtype=np.uint64)

        for li, ops in enumerate(self._ops):
            _gate_pass(ops, plane, row, scratch)
            # X flips of this layer, then Z phases read from the flipped plane
            for is_z in (0, 1):
                lo, hi = bounds[2 * li + is_z], bounds[2 * li + is_z + 1]
                if lo == hi:
                    continue
                cell, t_idx = np.divmod(codes[lo:hi], n_trials)
                widx = (row[cell % nq][:, None] * width + spans_idx[t_idx]).ravel()
                wmask = spans_mask[t_idx].ravel()
                if is_z:
                    np.bitwise_xor.at(sign, spans_idx[t_idx].ravel(), plane_flat[widx] & wmask)
                else:
                    np.bitwise_xor.at(plane_flat, widx, wmask)

        if self.sampled_basis:
            return self._fidelities_sampled(plane, row, initial, n_trials, trial_addresses)
        return self._fidelities(plane, row, sign, n_trials, B)

    def _sample_events(self, rng: np.random.Generator, n_trials: int) -> np.ndarray:
        """Draw a batch's noise: one Bernoulli process per flip-probability
        class over its `slots-per-trial * n_trials` slots, as sorted event
        codes ((layer * 2 + is_z) * nq + qubit) * n_trials + trial.

        Slot `j * n_trials + t` is slot j of the class's segments in trial t.
        """
        nq = self.schedule.qubit_count
        codes = [np.zeros(0, dtype=np.int64)]
        for q, key, start, offset in self._classes:
            j, t = np.divmod(_bernoulli_hits(rng, int(offset[-1]) * n_trials, q), n_trials)
            seg = np.searchsorted(offset, j, side="right") - 1
            codes.append((key[seg] * nq + self._pool[start[seg] + j - offset[seg]]) * n_trials + t)
        codes = np.concatenate(codes)
        codes.sort()
        return codes

    def _forced_events(self, forced: dict[int, list[PauliEvent]], n_trials: int) -> np.ndarray:
        """The test hook's events after each layer, on every trial, coded
        as in `_sample_events`."""
        nq = self.schedule.qubit_count
        cells = [(li * 2 + (ev.kind == "Z")) * nq + ev.qubit
                 for li, events in forced.items() for ev in events]
        codes = (np.array(cells, dtype=np.int64)[:, None] * n_trials + np.arange(n_trials)).ravel()
        codes.sort()
        return codes

    @staticmethod
    def _trial_spans(n_trials: int, B: int, width: int):
        """Per trial, the plane words its B columns touch and the bits it
        owns in each (zero index and mask pad the unused slots)."""
        per = max(B // 64 + (2 if B % 64 else 0), 1)
        start = np.arange(n_trials, dtype=np.int64)[:, None] * B
        words = (start >> 6) + np.arange(per, dtype=np.int64)
        lo = np.clip(start - 64 * words, 0, 64)
        hi = np.clip(start + B - 64 * words, 0, 64)
        used = hi > lo
        ones = np.where(used, hi - lo, 1).astype(np.uint64)
        shift = np.where(used, lo, 0).astype(np.uint64)
        msk = (_FULL >> (np.uint64(64) - ones)) << shift
        return np.where(used, words, 0), np.where(used, msk, np.uint64(0))

    def _fidelities(self, plane, row, sign, n_trials: int, B: int) -> np.ndarray:
        # a branch is bad when any bit it reads differs from its ideal bit
        span = self._care.shape[1]
        bad = np.zeros((plane.shape[1] // span, span), dtype=np.uint64)
        diff = np.empty_like(bad)
        for q, care, ideal in zip(self._read_rows, self._care, self._ideal):
            np.bitwise_xor(plane[row[q]].reshape(bad.shape), ideal, out=diff)
            diff &= care
            bad |= diff
        cols = n_trials * B
        good = _unpack_bits_lsb(~bad.reshape(-1), cols).reshape(n_trials, B)
        flipped = _unpack_bits_lsb(sign, cols).reshape(n_trials, B) & good
        # every weight is 2^-n, so this is the per-branch overlap sum exactly
        net = good.sum(axis=1, dtype=np.int64) - 2 * flipped.sum(axis=1, dtype=np.int64)
        overlap = net * (1.0 / B)
        return overlap**2

    def _fidelities_sampled(self, plane, row, initial, n_trials: int, addresses) -> np.ndarray:
        # one noiseless pass over the batch's initial plane is the reference;
        # per-trial masks, and a global sign never shows in |overlap|^2
        ref_row = self._noiseless_pass(initial)
        trial, qubit = self._mask_entries(addresses)
        diff = _column_bits(plane, row[qubit], trial) ^ _column_bits(initial, ref_row[qubit], trial)
        bad = np.bincount(trial, weights=diff, minlength=n_trials)
        return (bad == 0).astype(np.float64)
