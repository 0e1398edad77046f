"""Bit-plane batched trajectory executor.

Simulates many Monte Carlo trajectories of one schedule at once by storing
the state transposed: one uint64 row per logical qubit, one bit per
(trial, branch) column. Permutation gates become a handful of vectorized
word operations per gate, and sampled Pauli errors become scattered XORs,
so the per-trajectory cost is a fraction of a millisecond even for
thousand-qubit registries.

Error model: the schedule's `NoisePlan` (noise.py), the one home of the
per-phase noise rule, says after which layers noise lands, for how many
rounds, and on which live qubits with what X and Z rates. There each live
qubit suffers a net X flip and a net Z flip with the odd-parity
probability of those rounds (`NoiseModel(mode="aggregate")`; the engine
rejects "rounds" mode). Only the parity of X or Z hits on a qubit within
a phase can affect the final state, so this matches round-by-round
sampling exactly up to the O((eps*k)^2) chance of an X and a Z landing on
the same qubit in the same phase in a specific order. X flips are
applied before Z phases.

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
"""

from __future__ import annotations

import numpy as np

from .circuits import GateKind, Schedule
from .noise import NoiseModel, NoisePlan, PauliEvent, net_flip_probability

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def _pack_bits_lsb(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into uint64 words, bit i of word w = bits[64w+i]."""
    n = bits.shape[-1]
    width = (n + 63) // 64
    padded = np.zeros(bits.shape[:-1] + (width * 64,), dtype=np.uint64)
    padded[..., :n] = bits
    powers = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    return (padded.reshape(bits.shape[:-1] + (width, 64)) * powers).sum(
        axis=-1, dtype=np.uint64
    )


def _word_bits(words: list[int], nq: int) -> np.ndarray:
    """(nq, len(words)) boolean matrix whose column b holds the bits of words[b]."""
    bits = np.zeros((nq, len(words)), dtype=bool)
    for b, w in enumerate(words):
        for q in range(nq):
            bits[q, b] = (w >> q) & 1
    return bits


def _distinct_indices(rng: np.random.Generator, slots: int, k: int) -> np.ndarray:
    """k distinct uniform draws from range(slots) by rejection."""
    if k >= slots:
        return np.arange(slots, dtype=np.int64)
    idx = np.unique(rng.integers(0, slots, size=k, dtype=np.int64))
    while idx.size < k:
        extra = rng.integers(0, slots, size=k - idx.size, dtype=np.int64)
        idx = np.unique(np.concatenate([idx, extra]))
    return idx


class PlaneEngine:
    """Batched trajectory runner for one schedule and noise model."""

    def __init__(
        self,
        schedule: Schedule,
        noise: NoiseModel | None,
        address_mode: str = "superposition",
    ):
        if noise is not None and noise.mode != "aggregate":
            raise ValueError(
                f"PlaneEngine samples net parity flips; it needs mode='aggregate', "
                f"got {noise.mode!r}"
            )
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
        self.weights = np.full(self.branch_count, 1.0 / self.branch_count)

        if not self.sampled_basis:
            self._init_bits = _word_bits(
                [schedule.initial_word(a) for a in self.addresses], nq
            )

            self._masks = []
            self._ideal_bits = []
            for a in self.addresses:
                mask = np.array(schedule.output_mask(a), dtype=np.int64)
                ideal = schedule.ideal_word(a)
                bits = np.array([(ideal >> int(q)) & 1 for q in mask], dtype=np.uint64)
                self._masks.append(mask)
                self._ideal_bits.append(bits)

        self._ops = [self._compile_layer(layer) for layer in schedule.layers]

        # per noisy layer: (net X flip, net Z flip, qubits) of each live group
        self._layer_probs: list[list | None] = [None] * len(schedule.layers)
        if noise is not None:
            for step in NoisePlan(schedule, noise).steps:
                per_group = []
                for g in step.groups:
                    qx = net_flip_probability(g.px, step.rounds) if g.px else 0.0
                    qz = net_flip_probability(g.pz, step.rounds) if g.pz else 0.0
                    if qx or qz:
                        per_group.append((qx, qz, g.qubits))
                self._layer_probs[step.layer] = per_group

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

        trial_addresses = None
        if self.sampled_basis:
            trial_addresses = rng.integers(0, 1 << self.schedule.n, size=n_trials)
            words = [self.schedule.initial_word(int(a)) for a in trial_addresses]
            plane = _pack_bits_lsb(_word_bits(words, nq))
        elif B % 64 == 0:
            packed = _pack_bits_lsb(self._init_bits)  # (nq, B/64)
            plane = np.tile(packed, (1, n_trials))
        else:
            tiled = np.tile(self._init_bits, (1, n_trials))  # (nq, cols)
            plane = _pack_bits_lsb(tiled)
        if plane.shape[1] < width:
            plane = np.pad(plane, ((0, 0), (0, width - plane.shape[1])))
        sign = np.zeros(width, dtype=np.uint64)
        row = np.arange(nq)

        # per-trial word spans (indices plus masks, zero-padded)
        spans_idx, spans_mask = self._trial_spans(n_trials, B, width)

        plane_flat = plane.reshape(-1)
        scratch = np.empty(width, dtype=np.uint64)

        for li, ops in enumerate(self._ops):
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

            if forced_events is not None:
                for ev in forced_events.get(li, ()):  # applied to every trial
                    r = row[ev.qubit]
                    if ev.kind == "X":
                        np.invert(plane[r], out=plane[r])
                    else:
                        sign ^= plane[r]
                continue
            if self.noise is None or self._layer_probs[li] is None:
                continue

            xs_q, xs_t, zs_q, zs_t = [], [], [], []
            for qx, qz, qubits in self._layer_probs[li]:
                slots = qubits.size * n_trials
                if qx > 0.0:
                    k = rng.binomial(slots, qx)
                    if k:
                        idx = _distinct_indices(rng, slots, int(k))
                        xs_q.append(qubits[idx // n_trials])
                        xs_t.append(idx % n_trials)
                if qz > 0.0:
                    k = rng.binomial(slots, qz)
                    if k:
                        idx = _distinct_indices(rng, slots, int(k))
                        zs_q.append(qubits[idx // n_trials])
                        zs_t.append(idx % n_trials)
            if xs_q:
                q_idx = np.concatenate(xs_q)
                t_idx = np.concatenate(xs_t)
                widx = (row[q_idx][:, None] * width + spans_idx[t_idx]).ravel()
                wmask = spans_mask[t_idx].ravel()
                np.bitwise_xor.at(plane_flat, widx, wmask)
            if zs_q:
                q_idx = np.concatenate(zs_q)
                t_idx = np.concatenate(zs_t)
                widx = (row[q_idx][:, None] * width + spans_idx[t_idx]).ravel()
                wmask = spans_mask[t_idx].ravel()
                vals = plane_flat[widx] & wmask
                np.bitwise_xor.at(sign, spans_idx[t_idx].ravel(), vals)

        if self.sampled_basis:
            return self._fidelities_sampled(plane, row, n_trials, trial_addresses)
        return self._fidelities(plane, row, sign, n_trials, B)

    @staticmethod
    def _trial_spans(n_trials: int, B: int, width: int):
        per = B // 64 + (2 if B % 64 else 0)
        per = max(per, 1)
        idx = np.zeros((n_trials, per), dtype=np.int64)
        msk = np.zeros((n_trials, per), dtype=np.uint64)
        for t in range(n_trials):
            start, end = t * B, (t + 1) * B
            w0, w1 = start >> 6, (end - 1) >> 6
            for i, w in enumerate(range(w0, w1 + 1)):
                lo = max(start, w * 64) - w * 64
                hi = min(end, (w + 1) * 64) - w * 64
                m = _FULL if hi - lo == 64 else np.uint64(((1 << (hi - lo)) - 1) << lo)
                idx[t, i] = w
                msk[t, i] = m
        return idx, msk

    def _fidelities(self, plane, row, sign, n_trials: int, B: int) -> np.ndarray:
        t = np.arange(n_trials, dtype=np.int64)
        overlap = np.zeros(n_trials, dtype=np.float64)
        for b in range(B):
            cols = t * B + b
            w_idx = cols >> 6
            b_pos = (cols & 63).astype(np.uint64)
            bad = np.zeros(n_trials, dtype=bool)
            for q, ideal_bit in zip(self._masks[b], self._ideal_bits[b]):
                bits = (plane[row[q]][w_idx] >> b_pos) & np.uint64(1)
                bad |= bits != ideal_bit
            s_bits = (sign[w_idx] >> b_pos) & np.uint64(1)
            signs = 1.0 - 2.0 * s_bits.astype(np.float64)
            overlap += self.weights[b] * signs * (~bad)
        return overlap**2

    def _fidelities_sampled(self, plane, row, n_trials: int, addresses) -> np.ndarray:
        # per-trial masks; a global sign never shows in |overlap|^2
        sched = self.schedule
        out = np.empty(n_trials, dtype=np.float64)
        for t in range(n_trials):
            a = int(addresses[t])
            ideal = sched.ideal_word(a)
            good = 1.0
            for q in sched.output_mask(a):
                bit = (int(plane[row[q]][t >> 6]) >> (t & 63)) & 1
                if bit != ((ideal >> q) & 1):
                    good = 0.0
                    break
            out[t] = good
        return out
