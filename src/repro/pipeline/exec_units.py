"""Execution-unit ports.

A Cortex-A76-like port layout: several single-cycle integer ALUs, one
multiply/divide unit, two load ports, one store-address port, and a branch
port.  Port occupancy is per-cycle; SMoTHERSpectre-style speculative
contention channels (§4.1) arise precisely because a speculative
instruction's issue consumes a port that co-runners would observe.
"""

from __future__ import annotations

from typing import Dict

from repro.isa.instructions import InstrClass


#: Ports available per class, per cycle.
DEFAULT_PORTS: Dict[InstrClass, int] = {
    InstrClass.ALU: 4,
    InstrClass.MUL: 1,
    InstrClass.DIV: 1,
    InstrClass.BRANCH: 2,
    InstrClass.LOAD: 2,
    InstrClass.STORE: 1,
    InstrClass.MTE: 1,
    InstrClass.BARRIER: 1,
    InstrClass.NOP: 8,
    InstrClass.HALT: 1,
}


class ExecPorts:
    """Per-cycle issue-port bookkeeping.

    The tables inside are keyed by the class's value string
    (``Instruction.klass_key``), which hashes in C; the issue stage claims
    through :meth:`claim`.  The public API takes :class:`InstrClass`.
    """

    def __init__(self, ports: Dict[InstrClass, int] = None):
        self.ports = dict(DEFAULT_PORTS if ports is None else ports)
        self._capacity: Dict[str, int] = {k.value: v
                                          for k, v in self.ports.items()}
        self._used: Dict[str, int] = {}
        self._issued: Dict[str, int] = {k.value: 0 for k in self.ports}
        self.contention_stalls = 0

    @property
    def issue_counts(self) -> Dict[InstrClass, int]:
        """Cumulative issue counts per class (contention observable)."""
        return {InstrClass(k): v for k, v in self._issued.items()}

    def new_cycle(self) -> None:
        """Reset per-cycle occupancy."""
        self._used = {}

    def try_claim(self, klass: InstrClass) -> bool:
        """Claim one port of ``klass`` this cycle; False when contended."""
        return self.claim(klass.value)

    def claim(self, key: str) -> bool:
        """:meth:`try_claim` for the class whose value string is ``key``."""
        used = self._used.get(key, 0)
        if used >= self._capacity.get(key, 1):
            self.contention_stalls += 1
            return False
        self._used[key] = used + 1
        self._issued[key] = self._issued.get(key, 0) + 1
        return True

    def occupancy(self, klass: InstrClass) -> int:
        """Ports of ``klass`` in use this cycle (the contention observable)."""
        return self._used.get(klass.value, 0)

    def state_dict(self) -> dict:
        # ``_used`` is per-cycle scratch (reset by ``new_cycle``);
        # checkpoints are taken at cycle boundaries, so it is not state.
        return {"issue_counts": dict(self._issued),
                "contention_stalls": self.contention_stalls}

    def load_state_dict(self, state: dict) -> None:
        self._used = {}
        self._issued = {InstrClass(k).value: int(v)
                        for k, v in state["issue_counts"].items()}
        self.contention_stalls = int(state["contention_stalls"])
