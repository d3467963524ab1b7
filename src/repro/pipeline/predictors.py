"""Branch-prediction and memory-dependence structures.

These are the components TEAs mistrain (§2.1, §4.2):

- :class:`PatternHistoryTable` — gshare-style conditional direction
  predictor (Spectre-PHT / v1 mistrains this);
- :class:`BranchTargetBuffer` — indirect-target predictor, indexed by PC
  hashed with global history so Spectre-BTB (v2) *and* Spectre-BHB can
  alias-inject targets;
- :class:`ReturnStackBuffer` — circular return-address stack
  (Spectre-RSB / v5 under/overflows it);
- :class:`BranchHistoryBuffer` — the global history register feeding both;
- :class:`MemoryDependencePredictor` — the MDU of §3.4, whose
  no-dependence speculation opens the Spectre-STL (v4) window.
"""

from __future__ import annotations

from typing import List, Optional


class BranchHistoryBuffer:
    """Global branch-history register (the BHB)."""

    def __init__(self, bits: int = 8):
        self.bits = bits
        self._mask = (1 << bits) - 1
        self.history = 0

    def update(self, taken: bool) -> None:
        """Shift one outcome into the history."""
        self.history = ((self.history << 1) | int(taken)) & self._mask

    def snapshot(self) -> int:
        return self.history

    def restore(self, value: int) -> None:
        self.history = value & self._mask

    def corrupt(self, rng) -> None:
        """Fault injection: scramble the global history register."""
        self.history = rng.getrandbits(self.bits)

    def state_dict(self) -> dict:
        return {"history": self.history}

    def load_state_dict(self, state: dict) -> None:
        self.history = int(state["history"]) & self._mask


class PatternHistoryTable:
    """gshare: 2-bit saturating counters indexed by PC xor history."""

    def __init__(self, entries: int, bhb: BranchHistoryBuffer):
        self.entries = entries
        self.bhb = bhb
        self._counters: List[int] = [1] * entries  # weakly not-taken
        self.lookups = 0
        self.correct = 0

    @staticmethod
    def _hash(pc: int, history: int) -> int:
        # gshare with a multiplicative spread of the history: naive
        # ``pc ^ history`` collides constantly for small text segments
        # (identical pre-modulus XOR values), which real predictors avoid
        # by hashing more PC/history bits into the index.
        return (pc >> 2) ^ (history * 0x9E37)

    def _index(self, pc: int) -> int:
        return self._hash(pc, self.bhb.history) % self.entries

    def predict(self, pc: int) -> bool:
        """Predicted direction for the conditional branch at ``pc``."""
        self.lookups += 1
        return self._counters[self._index(pc)] >= 2

    def train(self, pc: int, taken: bool, history: int) -> None:
        """Update the counter the prediction used (same history value)."""
        index = self._hash(pc, history) % self.entries
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)

    def corrupt(self, rng, fraction: float = 1.0) -> None:
        """Fault injection: randomize a ``fraction`` of the 2-bit counters.

        Mistrained direction state only costs mispredicts (and widens
        wrong-path windows); architectural results must survive unchanged.
        """
        for index in range(self.entries):
            if fraction >= 1.0 or rng.random() < fraction:
                self._counters[index] = rng.randrange(4)

    def state_dict(self) -> dict:
        return {"counters": list(self._counters), "lookups": self.lookups,
                "correct": self.correct}

    def load_state_dict(self, state: dict) -> None:
        self._counters = [int(c) for c in state["counters"]]
        self.lookups = int(state["lookups"])
        self.correct = int(state["correct"])


class BranchTargetBuffer:
    """Direct-mapped indirect-target predictor, history-hashed (BHB-prone)."""

    def __init__(self, entries: int, bhb: BranchHistoryBuffer):
        self.entries = entries
        self.bhb = bhb
        self._targets: List[Optional[int]] = [None] * entries
        self._tags: List[int] = [0] * entries
        self.lookups = 0
        self.mispredicts = 0

    def _index(self, pc: int) -> int:
        # Folding the history in is what makes cross-branch aliasing — and
        # therefore Spectre-BHB-style injection — possible.
        return ((pc >> 2) ^ (self.bhb.history << 3)) % self.entries

    def predict(self, pc: int) -> Optional[int]:
        """Predicted target for the indirect branch at ``pc``, or None."""
        self.lookups += 1
        index = self._index(pc)
        # Deliberately tag-less within the index: aliased branches share the
        # slot, which is the v2/BHB injection surface.
        return self._targets[index]

    def train(self, pc: int, target: int, history: int) -> None:
        index = ((pc >> 2) ^ (history << 3)) % self.entries
        self._targets[index] = target
        self._tags[index] = pc

    def corrupt(self, rng) -> None:
        """Fault injection: scramble every trained target.

        Predicted targets become garbage; fetch follows them, finds no
        text, and recovers at branch resolution — a misprediction storm,
        never a wrong architectural result.
        """
        for index, target in enumerate(self._targets):
            if target is not None:
                self._targets[index] = rng.randrange(1 << 20) & ~3

    def state_dict(self) -> dict:
        return {"targets": list(self._targets), "tags": list(self._tags),
                "lookups": self.lookups, "mispredicts": self.mispredicts}

    def load_state_dict(self, state: dict) -> None:
        self._targets = [None if t is None else int(t)
                         for t in state["targets"]]
        self._tags = [int(t) for t in state["tags"]]
        self.lookups = int(state["lookups"])
        self.mispredicts = int(state["mispredicts"])


class ReturnStackBuffer:
    """Truly circular return-address predictor stack.

    Like real RSBs, the top-of-stack pointer wraps: a call chain deeper than
    ``entries`` overwrites the oldest entries, and pops past the underflow
    point re-read *stale* slots instead of reporting empty.  That stale
    re-use is exactly the Spectre-RSB (ret2spec) attack surface [44, 52].
    """

    def __init__(self, entries: int):
        self.capacity = entries
        self._slots: List[Optional[int]] = [None] * entries
        self._tos = entries - 1
        self.pushes = 0
        self.pops = 0

    def push(self, return_address: int) -> None:
        self._tos = (self._tos + 1) % self.capacity
        self._slots[self._tos] = return_address
        self.pushes += 1

    def pop(self) -> Optional[int]:
        self.pops += 1
        value = self._slots[self._tos]
        self._tos = (self._tos - 1) % self.capacity
        return value

    def corrupt(self, rng) -> None:
        """Fault injection: scramble every occupied return-address slot."""
        for index, slot in enumerate(self._slots):
            if slot is not None:
                self._slots[index] = rng.randrange(1 << 20) & ~3

    def state_dict(self) -> dict:
        return {"slots": list(self._slots), "tos": self._tos,
                "pushes": self.pushes, "pops": self.pops}

    def load_state_dict(self, state: dict) -> None:
        self._slots = [None if s is None else int(s) for s in state["slots"]]
        self._tos = int(state["tos"])
        self.pushes = int(state["pushes"])
        self.pops = int(state["pops"])


class MemoryDependencePredictor:
    """The Memory Disambiguation Unit's predictor (§3.4).

    Default-aggressive: loads are predicted independent of unresolved older
    stores (this is the Spectre-STL window).  An ordering violation trains
    the entry so the same load PC subsequently waits.
    """

    def __init__(self, entries: int):
        self.entries = entries
        self._wait_bits: List[int] = [0] * entries
        self.violations = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predicts_dependence(self, pc: int) -> bool:
        """True when the load at ``pc`` should wait for older stores."""
        return self._wait_bits[self._index(pc)] > 0

    def train_violation(self, pc: int) -> None:
        """An ordering violation occurred: make this load conservative."""
        self._wait_bits[self._index(pc)] = 3
        self.violations += 1

    def decay(self, pc: int) -> None:
        """Successful aggressive execution slowly re-enables speculation."""
        index = self._index(pc)
        if self._wait_bits[index] > 0:
            self._wait_bits[index] -= 1

    def corrupt(self, rng) -> None:
        """Fault injection: clear every trained wait bit.

        Re-opens the Spectre-STL window for loads that had gone
        conservative; ordering violations re-detect and re-train, so the
        cost is replays, not wrong results.
        """
        self._wait_bits = [0] * self.entries

    def state_dict(self) -> dict:
        return {"wait_bits": list(self._wait_bits),
                "violations": self.violations}

    def load_state_dict(self, state: dict) -> None:
        self._wait_bits = [int(b) for b in state["wait_bits"]]
        self.violations = int(state["violations"])
