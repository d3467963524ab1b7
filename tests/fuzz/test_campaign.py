"""Campaign sharding: deterministic shard configs, the worker entry."""

import json
import os

from repro.fuzz import campaign, corpus
from repro.fuzz.executor import FuzzConfig
from repro.rng import derive_seed


def test_shard_configs_split_the_budget_with_distinct_seeds():
    config = FuzzConfig(seed=0xBEEF, budget=40, repair_budget=4)
    shards = [campaign.shard_config(config, 4, i) for i in range(4)]
    assert [s.budget for s in shards] == [10, 10, 10, 10]
    assert len({s.seed for s in shards}) == 4
    assert shards[2].seed == derive_seed(0xBEEF, "fuzz", "shard", 2)
    # Everything but seed/budget splits is inherited.
    assert all(s.defenses == config.defenses for s in shards)


def test_shard_config_is_stable_across_calls():
    config = FuzzConfig(seed=3, budget=30)
    assert campaign.shard_config(config, 3, 1) == \
        campaign.shard_config(config, 3, 1)


def test_run_worker_writes_outcome_and_a_loadable_run(tmp_path):
    out_dir = str(tmp_path / "shard-000")
    os.makedirs(out_dir)
    config = FuzzConfig(seed=0x77, budget=3, sim_every=3, warmup=1,
                        repair_budget=0)
    code = campaign.run_worker(
        out_dir, config,
        heartbeat_path=os.path.join(out_dir, "heartbeat"),
        outcome_path=os.path.join(out_dir, "outcome.json"))
    assert code == 0
    outcome = json.load(open(os.path.join(out_dir, "outcome.json"),
                             encoding="utf-8"))
    assert outcome["status"] == "ok"
    run = corpus.load_run(out_dir)
    assert run.manifest["executed"] == 3
    assert os.path.exists(os.path.join(out_dir, "heartbeat"))


TINY = FuzzConfig(seed=0x5A, budget=4, sim_every=3, warmup=1,
                  repair_budget=0)


def _shard_run(root, index):
    return corpus.load_run(campaign.shard_dir(root, index))


def test_run_campaign_forks_shards_and_merges(tmp_path):
    root = str(tmp_path / "campaign")
    outcomes = campaign.run_campaign(root, TINY, 2)
    assert [(o.index, o.ok, o.attempts) for o in outcomes] == \
        [(0, True, 1), (1, True, 1)]
    merged = corpus.load_run(os.path.join(root, campaign.MERGED_DIR))
    executed = [_shard_run(root, i).manifest["executed"] for i in range(2)]
    assert merged.manifest["executed"] == sum(executed) == 4
    # Each forked shard wrote exactly what its config writes in-process.
    for index in range(2):
        out_dir = str(tmp_path / f"in-process-{index}")
        os.makedirs(out_dir)
        assert campaign.run_worker(
            out_dir, campaign.shard_config(TINY, 2, index),
            heartbeat_path=os.path.join(out_dir, "heartbeat"),
            outcome_path=os.path.join(out_dir, "outcome.json")) == 0
        assert corpus.load_run(out_dir).manifest["executed"] \
            == executed[index]
        assert corpus.run_digest(out_dir) == \
            corpus.run_digest(campaign.shard_dir(root, index))


def test_resume_reruns_only_the_removed_shard(tmp_path):
    import shutil

    root = str(tmp_path / "campaign")
    campaign.run_campaign(root, TINY, 2)
    kept = os.path.join(campaign.shard_dir(root, 0), corpus.MANIFEST)
    kept_mtime = os.stat(kept).st_mtime_ns
    shutil.rmtree(campaign.shard_dir(root, 1))
    outcomes = campaign.run_campaign(root, TINY, 2, resume=True)
    assert [(o.index, o.ok, o.attempts) for o in outcomes] == \
        [(0, True, 0), (1, True, 1)]
    assert outcomes[0].detail.startswith("resumed")
    assert os.stat(kept).st_mtime_ns == kept_mtime
    merged = corpus.load_run(os.path.join(root, campaign.MERGED_DIR))
    assert merged.manifest["executed"] == 4
