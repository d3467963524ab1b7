"""End-to-end service tests over real TCP and real worker subprocesses."""

import asyncio
import functools
import json
import os
import signal
import subprocess
import sys
import time

from repro.campaign import pool
from repro.service.__main__ import CLEAN_SOURCE, _by_id, _Client
from repro.service.server import ServiceConfig, SpecLintService
from repro.service.supervisor import lint_job


def config_for(tmp_path, **overrides) -> ServiceConfig:
    base = dict(
        state_dir=str(tmp_path / "state"), max_queue=8, max_per_client=4,
        static_workers=1, dynamic_workers=1, default_deadline_s=30.0,
        max_deadline_s=60.0, drain_timeout_s=5.0, max_restarts=1,
        stall_timeout_s=5.0, breaker_threshold=5, breaker_reset_s=0.5,
        quarantine_deaths=5, max_confirm_cycles=20_000)
    base.update(overrides)
    return ServiceConfig(**base)


# Work functions for the pools' forks, which unpickle them by name.

def crashing_work(job, heartbeat):
    """Dies at once with no outcome: stands in for a dead/sick pool in
    the degradation tests."""
    raise SystemExit(70)


def sleeping_work(job, heartbeat):
    """Outlives any test that does not reap it."""
    time.sleep(60)


async def start_service(config, **kwargs) -> SpecLintService:
    service = SpecLintService(config, **kwargs)
    await service.start()
    assert service.port is not None
    return service


async def stop_service(service: SpecLintService) -> dict:
    service.request_drain()
    await asyncio.wait_for(service.wait_drained(), 30.0)
    return service.shutdown_report or {}


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


def _gone(pid: int) -> bool:
    """True once ``pid`` no longer runs (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except OSError:
        return True


class TestTemplateDeath:
    def test_killed_template_costs_one_death_and_restarts(self, tmp_path):
        """SIGKILL the fork-server template under a running job: the job
        counts one death and is retried in a fork of a fresh template, its
        orphan is killed, and the next request is served."""
        async def scenario():
            service = await start_service(config_for(tmp_path),
                                          work=sleeping_work)
            client = await _Client.connect(service.port)
            await client.send({"id": "t1", "op": "lint", "witness": "pht"})

            async def first_attempt_running():
                while not service.static_pool._active:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(first_attempt_running(), 30.0)
            (orphan,) = service.static_pool._active
            # The retry, and every later job, runs the real work.
            service.static_pool.work = functools.partial(lint_job,
                                                         allow_chaos=False)
            killed = pool.template_pid()
            os.kill(killed, signal.SIGKILL)
            retried = await client.recv(timeout=60.0)
            after = await client.request(
                {"id": "t2", "op": "lint", "witness": "stl"}, timeout=60.0)
            client.close()
            report = await stop_service(service)
            return retried, after, orphan.pid, killed, report

        retried, after, orphan, killed, report = asyncio.run(scenario())
        assert retried["ok"] is True and retried["tier"] == "static"
        assert after["ok"] is True and after["cached"] is False
        assert pool.template_pid() != killed
        assert _gone(orphan), "the orphaned worker must not outlive it"
        workers = report["stats"]["service"]["workers"]
        assert workers["deaths"] == 1 and workers["restarts"] == 1


class TestStdio:
    def test_two_lines_then_eof(self, tmp_path):
        """Over ``--stdio`` (whose stdout the worker template shares),
        two lint lines then EOF give exactly two JSON lines and exit 0."""
        lines = [json.dumps({"id": f"s{i}", "op": "lint", "witness": w})
                 for i, w in enumerate(("pht", "stl"))]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--state-dir",
             str(tmp_path / "state"), "--stdio"],
            input="\n".join(lines) + "\n", capture_output=True, text=True,
            env=pool.worker_env(), timeout=120)
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
