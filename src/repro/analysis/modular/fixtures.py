"""The incremental re-lint bench fixture: a many-function program whose
single-function edits are address-stable.

:func:`bench_program` builds ``functions`` worker functions plus one
Spectre-PHT-shaped gadget function, all called from ``main``.  Every
function zeroes its temporaries before ``RET``, so its contribution to
the global return join is independent of its *internal* constants —
editing one function's constant (:func:`bench_program` with ``edits``)
changes that function's content digest and nothing else's interface,
which is exactly the case the summary cache is built for: the warm
re-lint re-analyzes one function, everything else hits.

Edits substitute an ``ADD`` immediate, so the instruction count — and
with the fixed-width encoding, every address — is unchanged; all other
functions' content digests stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program

#: Data-segment layout (well clear of the text at the default base).
_TABLE_BASE = 0x40000
_TABLE_STRIDE = 0x100
_ARRAY_BASE = 0x60000
_ARRAY_SIZE = 16
_SECRET_ADDR = _ARRAY_BASE + _ARRAY_SIZE
_PROBE_BASE = 0x70000
_IDX_TABLE = 0x50000

#: Default fixture size (functions beyond the gadget).
BENCH_FUNCTIONS = 16


def bench_program(functions: int = BENCH_FUNCTIONS,
                  edits: Optional[Dict[int, int]] = None,
                  ) -> Tuple[Program, List[Tuple[int, int]]]:
    """Build the fixture; ``edits`` maps function index -> constant delta.

    Returns ``(program, secret_ranges)``.  ``bench_program(edits={3: 7})``
    differs from the unedited build only inside ``fn3`` (same instruction
    count, same addresses everywhere).
    """
    edits = edits or {}
    b = ProgramBuilder()
    b.zero_segment("scratch", _TABLE_BASE - 0x1000, 0x100)
    for index in range(functions):
        b.words_segment(f"table{index}", _TABLE_BASE + index * _TABLE_STRIDE,
                        [(index + k) % 13 for k in range(16)])
    # In-bounds training indices plus the out-of-bounds one that walks off
    # the array into the adjacent secret granule.
    b.words_segment("idx_table", _IDX_TABLE, [1, 2, 3, _ARRAY_SIZE])
    b.bytes_segment("array", _ARRAY_BASE, bytes([7] * _ARRAY_SIZE), tag=0x3)
    b.bytes_segment("secret", _SECRET_ADDR, bytes([42]), tag=0x5)
    b.zero_segment("probe", _PROBE_BASE, 0x4000)

    b.entry(b.label("main"))
    for index in range(functions):
        b.bl(f"fn{index}")
    b.bl("fn_gadget")
    b.halt()

    # Worker bodies are deliberately dataflow-heavy: a 12-trip loop whose
    # table loads accumulate multi-constant sets each fixpoint iteration,
    # so the whole-program cost is dominated by work the summary cache can
    # skip on a warm re-lint.
    for index in range(functions):
        b.label(f"fn{index}")
        b.li("X1", _TABLE_BASE + index * _TABLE_STRIDE)
        b.li("X5", 0)
        b.li("X4", 12)
        loop = b.label(f"fn{index}_loop")
        b.lsl("X6", "X4", imm=3)
        b.ldr("X2", "X1", rm="X6")
        b.add("X5", "X5", rm="X2")
        b.ldr("X3", "X1", rm="X2")
        b.add("X5", "X5", rm="X3")
        b.ldr("X2", "X1", rm="X3")
        b.add("X5", "X5", rm="X2")
        b.ldr("X3", "X1", rm="X2")
        b.add("X5", "X5", rm="X3")
        b.ldr("X2", "X1", rm="X3")
        b.add("X5", "X5", rm="X2")
        b.ldr("X3", "X1", rm="X2")
        b.add("X5", "X5", rm="X3")
        b.sub("X4", "X4", imm=1)
        b.cbnz("X4", loop)
        b.add("X5", "X5", imm=index + edits.get(index, 0),
              note="the editable constant")
        for reg in ("X1", "X2", "X3", "X4", "X5", "X6"):
            b.li(reg, 0)
        # All workers funnel through one shared RET (below): return windows
        # are emitted per (RET, return-target) pair, so one RET block keeps
        # the shared window pass linear in the function count.
        b.b("bench_ret")
    b.label("bench_ret")
    # Publishing the funnel's address in a data segment makes it
    # address-taken, hence a call-graph root: each worker stays its own
    # function (and cache region) despite branching into the shared RET.
    b.words_segment("bench_ret_ptr", 0x48000, [b.current_address()])
    b.ret()

    # The gadget: delayed bounds check, in-window OOB load, probe touch.
    b.label("fn_gadget")
    b.li("X1", _IDX_TABLE)
    b.ldr("X2", "X1", imm=24, note="attacker index (resolves late)")
    b.cmp("X2", imm=_ARRAY_SIZE)
    b.b_cond("HS", "fn_gadget_skip")
    b.li("X3", _ARRAY_BASE)
    b.ldrb("X4", "X3", rm="X2", note="may walk into the secret")
    b.lsl("X4", "X4", imm=6)
    b.li("X5", _PROBE_BASE)
    b.ldrb("X5", "X5", rm="X4", note="probe-array transmitter")
    b.label("fn_gadget_skip")
    for reg in ("X1", "X2", "X3", "X4", "X5"):
        b.li(reg, 0)
    b.ret()

    return b.build(), [(_SECRET_ADDR, _SECRET_ADDR + 1)]

