"""Checkpoint subsystem driver.

``python -m repro.checkpoint --selftest`` — file-level round-trip plus the
corruption matrix: every damage primitive must be detected with the right
fault kind.

``python -m repro.checkpoint --smoke`` — the CI job's end-to-end drive:
pause a workload mid-run, checkpoint it, *discard the live system* (the
in-process equivalent of killing the worker), restore into a fresh system,
finish, and require the stats registry to match a straight-through run
byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.checkpoint import corrupt
from repro.checkpoint.manager import CheckpointManager
from repro.config import CORTEX_A76, DefenseKind
from repro.errors import CheckpointError
from repro.system import build_system
from repro.workloads import build_spec


def _registry_blob(system) -> str:
    return json.dumps(system.stats_registry().dump(), sort_keys=True)


def _fresh_system():
    return build_system(CORTEX_A76.with_defense(DefenseKind.SPECASAN))


def selftest() -> int:
    workload = build_spec("505.mcf_r", seed=1)
    program = workload.program
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        manager = CheckpointManager(os.path.join(tmp, "self.ckpt"))
        system = _fresh_system()
        core = system.prepare(program)
        core.run(until_cycle=200)
        manager.save(system, program)

        # Round trip.
        restored = _fresh_system()
        cycle = manager.restore(restored, program)
        if cycle != 200 or restored.core.cycle != 200:
            print(f"FAIL round-trip: cycle {cycle}")
            failures += 1
        else:
            print("ok  round-trip restores at the paused cycle")

        # Corruption matrix: damage -> expected fault kind.
        matrix = [
            ("truncate", lambda p: corrupt.truncate(p, 0.6), "truncated"),
            ("bit-flip hierarchy",
             lambda p: corrupt.flip_bit(p, section="hierarchy"),
             "section-corrupt"),
            ("bit-flip cores",
             lambda p: corrupt.flip_bit(p, section="cores"),
             "section-corrupt"),
            ("schema skew", lambda p: corrupt.skew_header(p, "schema"),
             "schema-skew"),
            ("config skew", lambda p: corrupt.skew_header(p, "config"),
             "config-skew"),
            ("torn write", corrupt.tear_write, "torn-header"),
        ]
        for label, damage, expected in matrix:
            manager2 = CheckpointManager(
                os.path.join(tmp, label.replace(" ", "_") + ".ckpt"))
            damage(manager2.save(system, program))
            try:
                manager2.restore(_fresh_system(), program)
            except CheckpointError as err:
                if err.kind == expected:
                    print(f"ok  {label} -> rejected as {err.kind!r}")
                else:
                    print(f"FAIL {label}: kind {err.kind!r} != {expected!r}")
                    failures += 1
            else:
                print(f"FAIL {label}: corrupt checkpoint restored")
                failures += 1
    return failures


def smoke() -> int:
    workload = build_spec("531.deepsjeng_r", seed=5)
    program = workload.program

    # Straight-through reference.
    reference = _fresh_system()
    reference.prepare(program).run()
    reference_blob = _registry_blob(reference)

    with tempfile.TemporaryDirectory() as tmp:
        manager = CheckpointManager(os.path.join(tmp, "smoke.ckpt"))

        # Run to the pause point, checkpoint, then drop the system on the
        # floor, as if its process had died there.
        victim = _fresh_system()
        core = victim.prepare(program)
        core.run(until_cycle=300)
        manager.save(victim, program)
        del victim, core

        # Restore and finish; registries must match byte-for-byte.
        resumed = _fresh_system()
        cycle = manager.restore(resumed, program)
        resumed.core.run()
        nbytes = os.path.getsize(manager.path)
    if _registry_blob(resumed) == reference_blob:
        print(f"ok  restored at cycle {cycle} from {nbytes} bytes; "
              "registry byte-identical to straight-through run")
        return 0
    print("FAIL restored run diverged from straight-through run")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.checkpoint",
                                     description=__doc__)
    parser.add_argument("--selftest", action="store_true",
                        help="file round-trip + corruption matrix")
    parser.add_argument("--smoke", action="store_true",
                        help="end-to-end pause/save/restore/compare run")
    args = parser.parse_args(argv)
    if not (args.selftest or args.smoke):
        args.selftest = True
    failures = 0
    if args.selftest:
        failures += selftest()
    if args.smoke:
        failures += smoke()
    print("PASS" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
