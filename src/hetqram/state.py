"""Sparse pure-state simulator over classical bit words.

A state is a set of branches: classical basis words (one bit per logical
qubit) with complex amplitudes. The gate set is restricted to permutations
of the computational basis (SWAP, controlled SWAPs, X, classically
controlled X) plus Z phases, which is all a bucket-brigade style query
circuit needs. Under these gates branches never merge or split, so the
branch count is invariant and every operation runs in O(branches). The
permutations are `circuits.Gate`s, applied to each branch's word by
`Gate.apply_to_word`, the action every schedule and simulator uses.

Words are stored as Python integers, bit ``i`` of the word being the value
of qubit ``i``. String constructors read character ``k`` of the string as
qubit ``k`` (so ``"011"`` puts qubit 0 in |0> and qubits 1, 2 in |1>).
"""

from __future__ import annotations

import math
from typing import Iterable

from .circuits import Gate

#: branches with |amp|^2 below this are dropped by normalize()
PRUNE_THRESHOLD = 1e-24


def word_from_bits(bits: str | Iterable[int]) -> int:
    """Pack a bit string (or iterable of 0/1) into an integer word."""
    word = 0
    for i, b in enumerate(bits):
        v = int(b)
        if v not in (0, 1):
            raise ValueError(f"bit {i} is {b!r}, expected 0 or 1")
        word |= v << i
    return word


def word_to_bits(word: int, width: int) -> str:
    """Unpack a word into its bit string (qubit 0 first)."""
    return "".join("1" if (word >> i) & 1 else "0" for i in range(width))


class BranchState:
    """Sparse superposition of classical words with complex amplitudes."""

    __slots__ = ("qubit_count", "branches")

    def __init__(self, qubit_count: int, branches: dict[int, complex]):
        if qubit_count <= 0:
            raise ValueError("qubit_count must be positive")
        self.qubit_count = qubit_count
        self.branches = branches

    # -- constructors ---------------------------------------------------

    @classmethod
    def basis(cls, bits: str | Iterable[int], width: int | None = None) -> "BranchState":
        """Single-branch state |bits> with amplitude 1."""
        if isinstance(bits, str):
            if width is None:
                width = len(bits)
            word = word_from_bits(bits)
        elif isinstance(bits, int):
            if width is None:
                raise ValueError("width required when passing an integer word")
            word = bits
        else:
            bits = list(bits)
            if width is None:
                width = len(bits)
            word = word_from_bits(bits)
        if width <= 0:
            raise ValueError("zero-width word")
        if word >> width:
            raise ValueError("word has bits beyond the stated width")
        return cls(width, {word: 1.0 + 0.0j})

    @classmethod
    def superposition(
        cls, entries: Iterable[tuple[str | int, complex]], width: int | None = None
    ) -> "BranchState":
        """Normalized superposition from (word, amplitude) pairs.

        Amplitudes are rescaled to unit norm. Duplicate words and an
        all-zero amplitude list are rejected.
        """
        branches: dict[int, complex] = {}
        for bits, amp in entries:
            if isinstance(bits, str):
                if width is None:
                    width = len(bits)
                elif len(bits) != width:
                    raise ValueError("mixed word widths")
                word = word_from_bits(bits)
            else:
                word = int(bits)
            if word in branches:
                raise ValueError(f"duplicate word {bits!r}")
            branches[word] = complex(amp)
        if not branches:
            raise ValueError("empty superposition")
        if width is None:
            raise ValueError("width required when passing integer words")
        norm = math.sqrt(sum(abs(a) ** 2 for a in branches.values()))
        if norm == 0.0:
            raise ValueError("all amplitudes are zero")
        return cls(width, {w: a / norm for w, a in branches.items()})

    # -- bookkeeping ----------------------------------------------------

    def copy(self) -> "BranchState":
        return BranchState(self.qubit_count, dict(self.branches))

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.branches.values()))

    def normalize(self) -> "BranchState":
        """Rescale to unit norm and prune branches below PRUNE_THRESHOLD."""
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        self.branches = {
            w: a / n for w, a in self.branches.items() if abs(a) ** 2 >= PRUNE_THRESHOLD
        }
        return self

    def amplitude(self, bits: str | int) -> complex:
        word = word_from_bits(bits) if isinstance(bits, str) else bits
        return self.branches.get(word, 0.0 + 0.0j)

    def _check(self, *qubits: int) -> None:
        for q in qubits:
            if not 0 <= q < self.qubit_count:
                raise ValueError(f"qubit {q} out of range [0, {self.qubit_count})")

    # -- gates ----------------------------------------------------------
    # All gates mutate in place and return self so calls can be chained.

    def _apply(self, gate: Gate) -> "BranchState":
        """Map `gate.apply_to_word` over the branches: the one permutation
        semantics the schedules and the simulators share."""
        self._check(*gate.operands, *(q for q, _ in gate.controls))
        apply = gate.apply_to_word
        self.branches = {apply(w): a for w, a in self.branches.items()}
        return self

    def swap(self, a: int, b: int) -> "BranchState":
        """Exchange bits a and b in every word."""
        return self._apply(Gate.swap(a, b))

    def cswap(self, controls: list[tuple[int, int]], a: int, b: int) -> "BranchState":
        """Swap bits a, b in branches where every control matches its polarity.

        ``controls`` is a list of 1 or 2 ``(qubit, polarity)`` pairs with
        polarity 1 (control fires on |1>) or 0 (fires on |0>).
        """
        return self._apply(Gate.cswap(controls, a, b))

    def x(self, q: int) -> "BranchState":
        """Flip bit q in every word."""
        return self._apply(Gate.x(q))

    def z(self, q: int) -> "BranchState":
        """Negate the amplitude of branches with bit q set."""
        self._check(q)
        self.branches = {
            w: (-a if (w >> q) & 1 else a) for w, a in self.branches.items()
        }
        return self

    def classical_cx(self, data_bit: int, target: int) -> "BranchState":
        """X on target iff the classically stored data bit is 1."""
        return self._apply(Gate.classical_cx(data_bit, target))

    # -- measures ---------------------------------------------------------

    def inner(self, other: "BranchState") -> complex:
        """<self|other>, summed over shared words."""
        if self.qubit_count != other.qubit_count:
            raise ValueError("width mismatch")
        small, big = self.branches, other.branches
        conj_side = True
        if len(big) < len(small):
            small, big = big, small
            conj_side = False
        total = 0.0 + 0.0j
        for w, amp in small.items():
            o = big.get(w)
            if o is None:
                continue
            total += amp.conjugate() * o if conj_side else o.conjugate() * amp
        return total

    def fidelity(self, other: "BranchState") -> float:
        """|<self|other>|^2."""
        return abs(self.inner(other)) ** 2

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{word_to_bits(w, self.qubit_count)}: {a:.4g}"
            for w, a in sorted(self.branches.items())
        )
        return f"BranchState({terms})"


def inner_product(a: BranchState, b: BranchState) -> complex:
    """<a|b> as a free function."""
    return a.inner(b)
