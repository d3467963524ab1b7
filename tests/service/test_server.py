"""End-to-end service tests over real TCP and real forked workers."""

import asyncio
import json
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.campaign import pool
from repro.service import cache as verdict_cache
from repro.service.__main__ import CLEAN_SOURCE, _by_id, _Client
from repro.service.cache import VerdictCache
from repro.service.protocol import content_key, parse_request
from repro.service.server import ServiceConfig, SpecLintService
from repro.service.worker import run_job
from repro.store import append_record

from tests.analysis.test_modular_incremental import TWO_TBL, TWO_TBL_SECRET
from tests.campaign import forked_jobs

#: Every worker fork must happen in a one-thread process.
pytestmark = pytest.mark.filterwarnings(
    "error:forking a worker:DeprecationWarning")


def config_for(tmp_path, **overrides) -> ServiceConfig:
    base = dict(
        state_dir=str(tmp_path / "state"), max_queue=8, max_per_client=4,
        static_workers=1, dynamic_workers=1, default_deadline_s=30.0,
        max_deadline_s=60.0, drain_timeout_s=5.0, max_restarts=1,
        stall_timeout_s=5.0, breaker_threshold=5, breaker_reset_s=0.5,
        quarantine_deaths=5, max_confirm_cycles=20_000)
    base.update(overrides)
    return ServiceConfig(**base)


# Work functions for the pools' forks.

def crashing_work(job, heartbeat):
    """Dies at once with no outcome: stands in for a dead/sick pool in
    the degradation tests."""
    raise SystemExit(70)


def socket_fds(job, heartbeat):
    """The row of a job that lists the socket fds above 2 it holds."""
    sockets = []
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{name}")
        except OSError:   # the listing's own fd, closed by now
            continue
        if int(name) > 2 and target.startswith("socket:"):
            sockets.append(target)
    return {"row": {"sockets": sockets}}


def image_mark(job, heartbeat):
    """The row of :func:`forked_jobs.mark_image`."""
    return {"row": forked_jobs.mark_image(job, heartbeat)}


async def start_service(config, **kwargs) -> SpecLintService:
    service = SpecLintService(config, **kwargs)
    await service.start()
    assert service.port is not None
    return service


async def stop_service(service: SpecLintService) -> dict:
    service.request_drain()
    await asyncio.wait_for(service.wait_drained(), 30.0)
    return service.shutdown_report or {}


def listening(service: SpecLintService) -> dict:
    """The port of each address the service listens on (with port 0,
    each address of a host that resolves to several gets its own)."""
    return dict(sock.getsockname()[:2] for sock in service._server.sockets)


def addresses(host: str) -> set:
    """Every address a passive lookup of ``host`` gives, less those of a
    family this system opens no socket of: what asyncio binds for
    ``host``."""
    found = set()
    for family, *_, address in socket.getaddrinfo(
            host or None, 0, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE):
        try:
            socket.socket(family, socket.SOCK_STREAM).close()
        except OSError:
            continue
        found.add(address[0])
    return found


class TestLintEndToEnd:
    def test_static_verdict_cache_and_warm_restart(self, tmp_path):
        async def scenario():
            config = config_for(tmp_path)
            service = await start_service(config)
            client = await _Client.connect(service.port)
            first = await client.request(
                {"id": "r1", "op": "lint", "witness": "pht"})
            repeat = await client.request(
                {"id": "r2", "op": "lint", "witness": "pht"})
            source = await client.request(
                {"id": "r3", "op": "lint", "source": CLEAN_SOURCE,
                 "secret_ranges": [[0x4100, 0x4110]]})
            client.close()
            report = await stop_service(service)

            # Warm restart over the same state dir: the verdict survives.
            service2 = await start_service(config)
            client2 = await _Client.connect(service2.port)
            warm = await client2.request(
                {"id": "r4", "op": "lint", "witness": "pht"})
            client2.close()
            await stop_service(service2)
            return first, repeat, source, warm, report

        first, repeat, source, warm, report = asyncio.run(scenario())
        assert first["ok"] is True
        assert first["tier"] == "static"
        assert first["cached"] is False
        assert first["verdicts"]["none"] is True
        assert first["gadgets"], "witness must expose a gadget"
        assert repeat["cached"] is True
        assert source["ok"] is True and source["gadgets"] == []
        assert warm["cached"] is True, "restart must serve from cache"
        assert report["status"] == "drained"
        assert report["stats"]["service"]["cache"]["hits"] >= 1

    def test_work_dir_keeps_only_failed_attempt_logs(self, tmp_path):
        # An ok attempt leaves nothing behind; a crashed one keeps its log
        # as evidence, and only its log, also past a restart.
        work_dir = str(tmp_path / "state" / "work")

        async def scenario():
            config = config_for(tmp_path)
            service = await start_service(config)
            client = await _Client.connect(service.port)
            ok = await client.request(
                {"id": "r1", "op": "lint", "source": CLEAN_SOURCE,
                 "secret_ranges": [[0x4100, 0x4110]]})
            served = await client.request(
                {"id": "r2", "op": "lint", "witness": "pht"})
            after_ok = os.listdir(work_dir)
            service.static_pool.work = crashing_work
            service.dynamic_pool.work = crashing_work
            lost = await client.request(
                {"id": "r3", "op": "lint", "witness": "stl"}, timeout=60.0)
            client.close()
            await stop_service(service)
            after_crash = sorted(os.listdir(work_dir))

            service2 = await start_service(config)
            client2 = await _Client.connect(service2.port)
            again = await client2.request(
                {"id": "r4", "op": "lint", "witness": "btb"}, timeout=60.0)
            client2.close()
            await stop_service(service2)
            return ok, served, after_ok, lost, after_crash, again

        ok, served, after_ok, lost, after_crash, again = \
            asyncio.run(scenario())
        assert ok["ok"] is True and served["ok"] is True
        assert after_ok == []
        assert lost["ok"] is False
        assert after_crash and all(name.endswith(".log")
                                   for name in after_crash)
        assert again["ok"] is True
        assert sorted(os.listdir(work_dir)) == after_crash

    def test_ping_and_stats_are_inline(self, tmp_path):
        async def scenario():
            service = await start_service(config_for(tmp_path))
            client = await _Client.connect(service.port)
            pong = await client.request({"id": "p", "op": "ping"})
            stats = await client.request({"id": "s", "op": "stats"})
            client.close()
            await stop_service(service)
            return pong, stats

        pong, stats = asyncio.run(scenario())
        assert pong["pong"] is True
        assert pong["health"]["draining"] is False
        assert {"admission", "pools", "cache"} <= set(pong["health"])
        assert "service" in stats["stats"]


class TestDegradationLadder:
    def test_dynamic_pool_death_degrades_to_static_tier(self, tmp_path):
        """Kill the dynamic pool mid-request: the confirm=True request is
        still served, at the static tier, with the downgrade recorded."""
        async def scenario():
            service = await start_service(config_for(tmp_path))
            service.dynamic_pool.work = crashing_work
            client = await _Client.connect(service.port)
            response = await client.request(
                {"id": "d1", "op": "lint", "witness": "pht",
                 "confirm": True, "defense": "none"}, timeout=60.0)
            client.close()
            report = await stop_service(service)
            return response, report

        response, report = asyncio.run(scenario())
        assert response["ok"] is True
        assert response["tier"] == "static"
        assert response["degraded"] is True
        assert "lost" in response["degraded_reason"]
        assert "dynamic" not in response
        assert response["verdicts"]["none"] is True
        stats = report["stats"]["service"]
        assert stats["workers"]["deaths"] >= 2
        assert stats["tier"]["degraded"] == 1

    def test_both_pools_down_serves_cache_tier(self, tmp_path):
        """With every pool dead, previously computed content is still
        served — at the cache tier, marked degraded."""
        async def scenario():
            config = config_for(tmp_path)
            service = await start_service(config)
            client = await _Client.connect(service.port)
            seeded = await client.request(
                {"id": "s1", "op": "lint", "witness": "pht"})
            client.close()
            await stop_service(service)

            service2 = await start_service(config)
            service2.static_pool.work = crashing_work
            service2.dynamic_pool.work = crashing_work
            client2 = await _Client.connect(service2.port)
            # The exact key is cached: served before any pool is touched.
            cached = await client2.request(
                {"id": "s2", "op": "lint", "witness": "pht"})
            # confirm=True is a different key (same defense as the seed,
            # so the static variant of the key matches the cached entry);
            # dynamic and static both die, so the ladder lands on the
            # cached static verdict.
            degraded = await client2.request(
                {"id": "s3", "op": "lint", "witness": "pht",
                 "confirm": True}, timeout=60.0)
            # Never-computed content has no rung left: typed shed.
            shed = await client2.request(
                {"id": "s4", "op": "lint", "witness": "stl"}, timeout=60.0)
            client2.close()
            await stop_service(service2)
            return seeded, cached, degraded, shed

        seeded, cached, degraded, shed = asyncio.run(scenario())
        assert seeded["ok"] is True
        assert cached["ok"] is True and cached["cached"] is True
        assert degraded["ok"] is True
        assert degraded["tier"] == "cache"
        assert degraded["degraded"] is True
        assert shed["ok"] is False
        assert shed["error"]["kind"] == "degraded-unavailable"
        assert shed["error"]["retryable"] is True


class TestPoisonQuarantine:
    def test_poison_program_is_quarantined_by_content_hash(self, tmp_path):
        async def scenario():
            config = config_for(tmp_path, allow_chaos=True,
                                quarantine_deaths=2, max_restarts=0)
            service = await start_service(config)
            client = await _Client.connect(service.port)
            poison = {"op": "lint", "witness": "pht", "chaos": "die"}
            first = await client.request(dict(poison, id="p1"),
                                         timeout=60.0)
            second = await client.request(dict(poison, id="p2"),
                                          timeout=60.0)
            third = await client.request(dict(poison, id="p3"))
            # A different program is unaffected by the quarantine.
            healthy = await client.request(
                {"id": "h1", "op": "lint", "witness": "pht"}, timeout=60.0)
            client.close()
            report = await stop_service(service)
            return first, second, third, healthy, report

        first, second, third, healthy, report = asyncio.run(scenario())
        assert first["ok"] is False
        assert first["error"]["kind"] in {"worker-lost",
                                          "degraded-unavailable"}
        assert second["ok"] is False
        assert second["error"]["kind"] == "quarantined"
        assert third["error"]["kind"] == "quarantined"
        assert healthy["ok"] is True
        stats = report["stats"]["service"]
        assert stats["workers"]["quarantined_hashes"] == 1
        assert report["quarantine"]["quarantined"], \
            "shutdown report lists the poisoned hash"


#: Piped to a fresh ``python -``: a service whose pool's work function
#: is defined in that script reports which worker modules were imported
#: before it started (its preload begins then) and which a forked job
#: finds.
PRELOAD_PROBE = """
import asyncio, json, sys, time
from repro.service.server import ServiceConfig, SpecLintService

MODULES = ("repro.service.worker", "repro.analysis.taint",
           "repro.analysis.witness")


def loaded(job, heartbeat):
    return {"row": {name: name in sys.modules for name in MODULES}}


async def probe():
    service = SpecLintService(ServiceConfig(state_dir=sys.argv[1]),
                              work=loaded)
    before = {name: name in sys.modules for name in MODULES}
    await service.start()
    in_fork = await service.static_pool.submit(
        {}, key="probe", deadline=time.monotonic() + 60)
    service.request_drain()
    await service.wait_drained()
    print(json.dumps({"before": before, "in_fork": in_fork}))


asyncio.run(probe())
"""


class TestServiceFork:
    """Every job is a fork of the service: of a one-thread process that
    imported the worker's modules, holding none of the service's
    sockets."""

    @pytest.mark.parametrize("host", ["localhost", ""],
                             ids=["localhost", "every-interface"])
    def test_a_service_on_a_host_name_binds_every_address(self, tmp_path,
                                                           host):
        # asyncio would resolve the name on a thread that outlives it;
        # an empty host is every interface, IPv4 and IPv6 alike.
        async def scenario():
            service = await start_service(config_for(tmp_path, host=host))
            ports = listening(service)
            ipv4 = "127.0.0.1" if host == "localhost" else "0.0.0.0"
            client = await _Client.connect(ports[ipv4])
            reply = await client.request(
                {"id": "l", "op": "lint", "witness": "pht"}, timeout=60.0)
            client.close()
            await stop_service(service)
            return ports, reply

        ports, reply = asyncio.run(scenario())
        assert set(ports) == addresses(host)
        assert reply["ok"] is True and reply["cached"] is False, reply

    def test_a_forked_job_holds_no_socket(self, tmp_path):
        async def scenario():
            service = await start_service(config_for(tmp_path),
                                          work=socket_fds)
            client = await _Client.connect(service.port)
            await client.request({"id": "p", "op": "ping"})
            # Held now: the listener, both ends of the connection and
            # the event loop's self-pipe.
            row = await service.static_pool.submit(
                {}, key="fds", deadline=time.monotonic() + 30)
            client.close()
            await stop_service(service)
            return row

        assert asyncio.run(scenario())["sockets"] == []

    def test_two_services_on_one_loop_compute_a_job_each(self, tmp_path):
        async def scenario():
            replies = []
            for name, witness in (("first", "pht"), ("second", "stl")):
                service = await start_service(
                    config_for(tmp_path / name))
                client = await _Client.connect(service.port)
                replies.append(await client.request(
                    {"id": name, "op": "lint", "witness": witness},
                    timeout=60.0))
                client.close()
                await stop_service(service)
            return replies

        for reply in asyncio.run(scenario()):
            assert reply["ok"] is True and reply["cached"] is False, reply

    def test_preload_is_in_the_fork(self, tmp_path):
        # A fresh interpreter, so the preload really runs; its script
        # comes on stdin, which no fork could re-import.
        env = dict(pool.worker_env(),
                   PYTHONWARNINGS="error::DeprecationWarning")
        proc = subprocess.run(
            [sys.executable, "-", str(tmp_path / "state")],
            input=PRELOAD_PROBE, capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert not any(report["before"].values()), report
        assert all(report["in_fork"].values()), report

    def test_each_job_gets_a_fresh_image(self, tmp_path):
        async def scenario():
            service = await start_service(config_for(tmp_path),
                                          work=image_mark)
            rows = [await service.static_pool.submit(
                {}, key=f"mark{n}", deadline=time.monotonic() + 30)
                for n in range(2)]
            await stop_service(service)
            return rows

        first, second = asyncio.run(scenario())
        assert first["seen"] is False and second["seen"] is False


class TestStdio:
    def test_two_lines_then_eof(self, tmp_path):
        """Over ``--stdio`` (the protocol stream every fork inherits as
        its stdout until it moves fd 1 to its log), two lint lines then
        EOF give exactly two JSON lines and exit 0.  The service is a
        fresh interpreter, so its preload thread runs, and warnings are
        errors there: a fork before that thread ended would fail."""
        lines = [json.dumps({"id": f"s{i}", "op": "lint", "witness": w})
                 for i, w in enumerate(("pht", "stl"))]
        env = dict(pool.worker_env(),
                   PYTHONWARNINGS="error::DeprecationWarning")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--state-dir",
             str(tmp_path / "state"), "--stdio"],
            input="\n".join(lines) + "\n", capture_output=True, text=True,
            env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.splitlines()
        assert len(out) == 2, proc.stdout
        answers = _by_id([json.loads(line) for line in out])
        assert set(answers) == {"s0", "s1"}
        assert all(a["ok"] is True for a in answers.values())


class TestDrainInvariant:
    def test_every_accepted_request_resolves_under_drain(self, tmp_path):
        async def scenario():
            # The first lint wedges the single static worker (it never
            # heartbeats, and the stall timeout outlasts the drain), so the
            # lints queued behind it are cut however fast the host lints.
            config = config_for(tmp_path, static_workers=1,
                                drain_timeout_s=0.2, allow_chaos=True)
            service = await start_service(config)
            client = await _Client.connect(service.port)
            subjects = [("pht", "hang"), ("stl", ""), ("btb", "")]
            for i, (witness, chaos) in enumerate(subjects):
                await client.send({"id": f"q{i}", "op": "lint",
                                   "witness": witness, "chaos": chaos})
            await asyncio.sleep(0.05)
            service.request_drain()
            await asyncio.sleep(0.05)
            # Sent while the drain runs, before it hangs up.
            await client.send({"id": "late", "op": "lint",
                               "witness": "rsb"})
            answered = _by_id(await client.collect(len(subjects) + 1,
                                                   timeout=60.0))
            late = answered.pop("late")
            responses = list(answered.values())
            client.close()
            await asyncio.wait_for(service.wait_drained(), 30.0)
            return responses, late, service.shutdown_report

        responses, late, report = asyncio.run(scenario())
        assert len(responses) == 3
        for response in responses:
            assert response.get("ok") is True or \
                response["error"]["kind"] in {"cancelled", "deadline"}
        cut = [r for r in responses if not r.get("ok")]
        assert cut, "0.2s drain budget must cut at least one queued lint"
        assert late["error"]["kind"] == "draining"
        assert report["status"] == "cut"
        assert report["stats"]["service"]["lifecycle"][
            "cancelled_at_drain"] >= 1

    def test_drain_hangs_up_open_connections(self, tmp_path):
        """A client still connected when the drain ends reads EOF (and
        the drain itself returns, which Python >= 3.12.1 needs)."""
        async def scenario():
            service = await start_service(config_for(tmp_path))
            client = await _Client.connect(service.port)
            pong = await client.request({"id": "p", "op": "ping"})
            report = await stop_service(service)
            tail = await asyncio.wait_for(client.reader.readline(), 10.0)
            client.close()
            return pong, report, tail

        pong, report, tail = asyncio.run(scenario())
        assert pong["pong"] is True
        assert report["status"] == "drained"
        assert tail == b""

    def test_shutdown_report_file_is_written(self, tmp_path):
        async def scenario():
            config = config_for(tmp_path)
            service = await start_service(config)
            await stop_service(service)
            return config.state_dir

        state_dir = asyncio.run(scenario())
        path = os.path.join(state_dir, "shutdown-report.json")
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["status"] == "drained"
        assert "stats" in report and "admission" in report


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
