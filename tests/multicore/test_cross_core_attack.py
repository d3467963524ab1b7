"""Cross-core leakage through the shared L2.

The threat model (§3.1) includes attackers observing residual state from
*another* core: a victim's squashed speculative access still fills the
shared L2, which a co-located attacker can probe.  SpecASan's fill-blocking
(G3) keeps mismatched speculative lines out of the L2 too, closing the
cross-core channel.
"""

from repro.attacks import spectre_v1
from repro.config import CORTEX_A76, DefenseKind
from repro.isa import assemble
from repro.system import build_system


def _run_victim_with_observer(defense):
    """Victim (core 1) runs the Spectre-v1 PoC; the attacker (core 0) just
    spins, then probes the shared L2 for secret-indexed probe lines."""
    attack = spectre_v1.build()
    system = build_system(CORTEX_A76.with_cores(2).with_defense(defense))
    observer_prog = assemble("""
        MOV X1, #4000
    spin:
        SUB X1, X1, #1
        CBNZ X1, spin
        HALT
    """)
    _, victim = system.prepare([observer_prog, attack.builder_program])
    victim.secret_ranges = [(attack.secret_address,
                             attack.secret_address + 16)]
    system.run_prepared()
    hierarchy = system.hierarchy
    hierarchy.drain(10 ** 9)
    # The attacker probes through ITS OWN core: only the shared L2 can
    # betray the victim's speculation.
    recovered = [
        value for value in range(attack.candidates)
        if value not in attack.benign_values
        and hierarchy.l2.contains(attack.probe_base
                                  + value * attack.probe_stride)
    ]
    return attack, recovered


class TestCrossCoreChannel:
    def test_baseline_leaks_into_the_shared_l2(self):
        attack, recovered = _run_victim_with_observer(DefenseKind.NONE)
        assert attack.secret_value in recovered

    def test_specasan_keeps_the_shared_l2_clean(self):
        attack, recovered = _run_victim_with_observer(DefenseKind.SPECASAN)
        assert attack.secret_value not in recovered

    def test_ghostminion_shadow_never_reaches_l2(self):
        attack, recovered = _run_victim_with_observer(DefenseKind.GHOSTMINION)
        assert attack.secret_value not in recovered
