"""Resilient spec-lint service: the always-on front end over the lint
pipeline (static analysis + optional dynamic confirmation on the
simulator).

Run it with ``python -m repro.service --state-dir DIR`` (TCP) or
``--stdio``; speak the JSON-lines protocol of
:mod:`repro.service.protocol`.  The architecture is documented in
DESIGN.md §Service; the layering here is:

- :mod:`repro.service.protocol` — request/response schema, content keys;
- :mod:`repro.service.admission` — bounded fair queueing, load shedding;
- :mod:`repro.service.breaker` — circuit breaker + poison quarantine;
- :mod:`repro.service.cache` — durable verdict cache + single-flight;
- :mod:`repro.service.worker` — the per-job worker process;
- :mod:`repro.service.supervisor` — the supervised async worker pool;
- :mod:`repro.service.server` — admission → ladder → response wiring.
"""

from repro.service.server import ServiceConfig, SpecLintService

__all__ = ["ServiceConfig", "SpecLintService"]
