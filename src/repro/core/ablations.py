"""Ablation variants of SpecASan (the design choices DESIGN.md calls out).

These exist to quantify *why* SpecASan's design decisions matter:

- :class:`FullDelaySpecASanPolicy` — drop the selective-delay insight and
  stall every tagged speculative load until speculation resolves.  Security
  is unchanged; the cost approaches the barrier baseline, demonstrating
  that checking (not delaying) is what keeps SpecASan cheap (§3.2).
- :class:`NoLFBTagSpecASanPolicy` — SpecASan without §3.3.3's LFB tagging
  (run with ``MemoryConfig(lfb_tagged=False)``): stale in-flight data is
  forwarded unchecked again and the MDS rows of Table 1 flip back to
  unmitigated.
- :func:`memory_controller_only_config` — move the tag-check point from
  the earliest level to the memory controller alone (caches keep no lock
  sidecars): cache-resident secrets are no longer checked, so warm-data
  attacks slip through — the reason §3.3.1 propagates the check "to the
  earliest point that tag checking is possible".
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import SystemConfig
from repro.core.specasan import SpecASanPolicy
from repro.mte.tags import key_of
from repro.pipeline.dyninstr import DynInstr


class FullDelaySpecASanPolicy(SpecASanPolicy):
    """Delay *every* tagged speculative load, mismatched or not."""

    name = "specasan-full-delay"

    def may_issue_load(self, dyn: DynInstr) -> bool:
        if dyn.addr is None:
            return True
        if key_of(dyn.addr, self.core.config.mte.tag_bits) == 0:
            return True  # untagged accesses still proceed
        return not self.core.is_speculative(dyn)


class NoLFBTagSpecASanPolicy(SpecASanPolicy):
    """SpecASan with the LFB tag extension (§3.3.3) removed.

    Pair with ``MemoryConfig(lfb_tagged=False)``: the request flags are
    SpecASan's, but with no LFB tags to gate them stale forwards are
    allowed on faith again, as on the unprotected baseline.
    """

    name = "specasan-no-lfb-tags"


def memory_controller_only_config(config: SystemConfig) -> SystemConfig:
    """A config whose caches keep no allocation-tag sidecars.

    Tag checks then only happen at the memory controller (§3.3.4); any
    access that hits in a cache is never checked.
    """
    return replace(
        config,
        l1d=replace(config.l1d, tagged=False),
        l2=replace(config.l2, tagged=False),
        memory=replace(config.memory, lfb_tagged=False),
    )


def lfb_untagged_config(config: SystemConfig) -> SystemConfig:
    """A config without LFB allocation tags (the §3.3.3 ablation)."""
    return replace(config, memory=replace(config.memory, lfb_tagged=False))


def prefetcher_config(config: SystemConfig, check_tags: bool) -> SystemConfig:
    """Enable the next-line prefetcher (§6 future work), optionally with
    the SpecASan tag-boundary check."""
    return replace(config, memory=replace(
        config.memory, prefetcher="next-line",
        prefetch_check_tags=check_tags))
