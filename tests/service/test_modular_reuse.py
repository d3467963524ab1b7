"""Service jobs reuse function-granular summaries across submissions."""

import asyncio
import json
import os

from repro.analysis.modular import SummaryCache
from repro.isa.assembler import assemble
from repro.service import cache as verdict_cache
from repro.service.__main__ import _Client, _edit_pair
from repro.service.cache import VerdictCache
from repro.service.protocol import content_key, parse_request
from repro.service.worker import run_job
from repro.store import append_record

from tests.analysis.test_modular_incremental import TWO_TBL, TWO_TBL_SECRET
from tests.service.test_server import config_for, start_service, stop_service

SOURCE = """
    .data idx 0x4000 words 64
    MOV X1, #0x4000
    LDR X2, [X1]
    CMP X2, #16
    B.HS done
    MOV X3, #0x5000
    LDRB X4, [X3, X2]
    LSL X4, X4, #6
    MOV X5, #0x6000
    LDRB X5, [X5, X4]
done:
    HALT
"""


def _job(summary_dir):
    return {"source": SOURCE, "secret_ranges": [[0x5010, 0x5011]],
            "summary_dir": summary_dir}


def test_second_submission_is_all_hits(tmp_path):
    summary_dir = str(tmp_path)
    first = run_job(_job(summary_dir))
    assert "summary" in first
    assert first["summary"]["misses"] > 0
    assert first["summary"]["cached_regions"] > 0
    shard = SummaryCache.for_program(
        summary_dir, assemble(SOURCE), [(0x5010, 0x5011)])
    assert os.listdir(summary_dir) == [os.path.basename(shard.path)]
    assert len(shard) == first["summary"]["cached_regions"]

    second = run_job(_job(summary_dir))
    assert second["summary"]["misses"] == 0
    assert second["summary"]["hits"] > 0
    assert second["summary"]["reanalyzed"] == []
    # Verdicts and gadget reports are byte-identical across the replay.
    assert second["verdicts"] == first["verdicts"]
    assert second["gadgets"] == first["gadgets"]


def test_summary_backed_job_matches_whole_program(tmp_path):
    modular = run_job(_job(str(tmp_path)))
    whole = run_job({"source": SOURCE,
                     "secret_ranges": [[0x5010, 0x5011]]})
    assert "summary" not in whole
    assert modular["verdicts"] == whole["verdicts"]
    assert modular["gadgets"] == whole["gadgets"]
    assert modular["gadget_count"] == whole["gadget_count"]


def test_job_loads_only_its_own_environments_records(tmp_path):
    summary_dir = str(tmp_path)
    for end in (0x5012, 0x5013, 0x5014):     # three other environments
        run_job({"source": SOURCE, "secret_ranges": [[0x5010, end]],
                 "summary_dir": summary_dir})
    row = run_job(_job(summary_dir))
    assert row["summary"]["hits"] == 0
    assert row["summary"]["cached_regions"] == row["summary"]["misses"] > 0
    assert len(os.listdir(summary_dir)) == 4


def test_one_function_edit_hits_every_unchanged_region(tmp_path):
    summary_dir = str(tmp_path)
    base, edited, ranges = _edit_pair()
    first = run_job({"source": base, "secret_ranges": ranges,
                     "summary_dir": summary_dir})
    second = run_job({"source": edited, "secret_ranges": ranges,
                      "summary_dir": summary_dir})
    assert second["summary"]["reanalyzed"] == ["fn1"]
    assert second["summary"]["misses"] == 1
    assert second["summary"]["hits"] == first["summary"]["misses"] - 1
    assert second["summary"]["cached_regions"] == \
        first["summary"]["cached_regions"] + 1
    whole = run_job({"source": edited, "secret_ranges": ranges})
    assert second["verdicts"] == whole["verdicts"]
    assert second["gadgets"] == whole["gadgets"]


def test_verdict_from_an_older_analyzer_is_recomputed(tmp_path,
                                                      monkeypatch):
    # Before segment summaries were keyed by address, the second tbl load
    # read (1, 2, 3), the index stayed off the secret and the program
    # linted clean.  That cached verdict must not be served.
    config = config_for(tmp_path)
    request = {"id": "t", "op": "lint", "source": TWO_TBL,
               "secret_ranges": [list(r) for r in TWO_TBL_SECRET]}
    key = content_key(parse_request(json.dumps(request)))
    clean = {"verdicts": {"none": False, "specasan": False}, "gadgets": [],
             "gadget_count": 0, "tier": "static"}
    os.makedirs(config.state_dir)
    append_record(os.path.join(config.state_dir, VerdictCache.FILE),
                  {"schema": 1, "key": key, "row": clean})
    with monkeypatch.context() as old:
        old.setattr(verdict_cache, "CACHE_SCHEMA", 1)
        assert VerdictCache(config.state_dir).get(key) == clean

    async def scenario():
        service = await start_service(config)
        client = await _Client.connect(service.port)
        reply = await client.request(request, timeout=60.0)
        client.close()
        return reply, await stop_service(service)

    reply, report = asyncio.run(scenario())
    assert report["cache_rejected_at_load"] == 1
    assert reply["ok"] is True and reply["cached"] is False
    assert reply["verdicts"]["none"] is True
    whole = run_job({"source": TWO_TBL, "secret_ranges": TWO_TBL_SECRET})
    assert reply["verdicts"] == whole["verdicts"]
    assert reply["gadgets"] == whole["gadgets"]
