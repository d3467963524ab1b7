"""repro.store: the durability protocol and one corruption matrix.

Every store built on :mod:`repro.store` takes the same four damages —
truncate, bit flip, torn tail, schema skew.  The JSONL stores (campaign
results, the verdict cache, the summary cache, the fuzz corpus) must keep
every intact record and count exactly one reject; checkpoints must fail
closed with the :class:`~repro.errors.CheckpointError` kind each damage
maps to.
"""

import json
import os

import pytest

from repro import store
from repro.analysis.modular import SummaryCache
from repro.campaign import CampaignConfig, ResultStore
from repro.campaign.scheduler import CampaignOutcome
from repro.checkpoint import corrupt, read_checkpoint, write_checkpoint
from repro.errors import CampaignError, CheckpointError, FuzzError
from repro.fuzz import corpus
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.executor import FuzzConfig, FuzzResult
from repro.fuzz.generator import CandidateSpec, SectionSpec
from repro.service.cache import VerdictCache

KEYS = ["k0", "k1", "k2"]
DAMAGES = ["truncate", "bit-flip", "torn-tail", "schema-skew"]


# -- JSONL damage: each returns the keys that must survive --------------------

def _lines(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


def _write_lines(path, lines):
    with open(path, "wb") as handle:
        handle.write(b"".join(lines))


def truncate(path):
    """The file ends halfway through its last record."""
    lines = _lines(path)
    lines[-1] = lines[-1][:len(lines[-1]) // 2]
    _write_lines(path, lines)
    return KEYS[:-1]


def flip_bit(path):
    """One bit flips in a digit of the middle record's body."""
    lines = _lines(path)
    line = bytearray(lines[1])
    start = line.index(b'"sha256":')
    stamp = range(start, start + len(b'"sha256":"') + 64 + 1)
    offset = next(i for i, byte in enumerate(line)
                  if chr(byte).isdigit() and i not in stamp)
    line[offset] ^= 1
    lines[1] = bytes(line)
    _write_lines(path, lines)
    return [KEYS[0], KEYS[2]]


def tear_tail(path):
    """A non-atomic writer died mid-append: half a record, no newline."""
    lines = _lines(path)
    _write_lines(path, lines + [lines[0][:len(lines[0]) // 2]])
    return KEYS


def skew_schema(path):
    """The middle record is intact but written under another schema."""
    lines = _lines(path)
    record = json.loads(lines[1])
    record["schema"] = "skewed"
    record["sha256"] = store.checksum(record)
    lines[1] = (store.canonical(record) + "\n").encode("utf-8")
    _write_lines(path, lines)
    return [KEYS[0], KEYS[2]]


JSONL_DAMAGE = {"truncate": truncate, "bit-flip": flip_bit,
                "torn-tail": tear_tail, "schema-skew": skew_schema}


# -- the stores, each behind one adapter --------------------------------------
#
# ``write(key)`` opens the store as a restarted process would, adds one
# record and persists it; ``load()`` reopens it and reports what survived.

class JsonlStore:
    #: Whether the next write keeps a torn line (appenders terminate it and
    #: loads keep reporting it) or drops it (rewriters persist only the
    #: records they loaded).
    keeps_torn_line = True

    def damage(self, name):
        return JSONL_DAMAGE[name](self.path), 1

    def healed(self):
        return KEYS + ["k3"], 1 if self.keeps_torn_line else 0


class CampaignResults(JsonlStore):
    """``results.jsonl``; survivors are the cells ``completed()`` skips."""

    def __init__(self, root):
        self.store = ResultStore(str(root))
        os.makedirs(self.store.run_dir)
        self.path = self.store.results_path

    def write(self, key):
        ResultStore(self.store.run_dir).append(
            {"cell_id": key, "status": "ok", "attempt": 0,
             "row": {"cycles": 1000}})

    def load(self):
        done, rejects = ResultStore(self.store.run_dir).completed(
            KEYS + ["k3"])
        return sorted(done), len(rejects)


class Verdicts(JsonlStore):
    def __init__(self, root):
        self.root = str(root)
        self.path = os.path.join(self.root, VerdictCache.FILE)

    def write(self, key):
        VerdictCache(self.root).put(key, {"gadget_count": 1})

    def load(self):
        cache = VerdictCache(self.root)
        return [k for k in KEYS + ["k3"] if k in cache], cache.rejected


class Summaries(JsonlStore):
    keeps_torn_line = False

    def __init__(self, root):
        self.path = str(root / "summaries.jsonl")

    def write(self, key):
        cache = SummaryCache(self.path)
        cache.put(key, {"ret": None})
        cache.flush()

    def load(self):
        cache = SummaryCache(self.path)
        return ([k for k in KEYS + ["k3"] if cache.get(k) is not None],
                cache.rejected)


class FuzzCorpus(JsonlStore):
    keeps_torn_line = False

    def __init__(self, root):
        self.root = str(root)
        self.path = os.path.join(self.root, corpus.CORPUS)

    def write(self, key):
        specs = (corpus.load_run(self.root).specs
                 if os.path.exists(self.path) else [])
        specs.append(CandidateSpec(sections=(
            SectionSpec(template="pht", pad=int(key[1:])),)))
        corpus.save_run(self.root, FuzzResult(
            config=FuzzConfig(seed=1, budget=4), coverage=CoverageMap(),
            disagreements=[], admitted=specs))

    def load(self):
        run = corpus.load_run(self.root)
        return [f"k{spec.sections[0].pad}" for spec in run.specs], run.corrupt


#: Bulky enough that the payloads dominate the file, so truncating it
#: halfway lands in a section rather than the header.
SECTIONS = {"hierarchy": {"caches": [(i * 2654435761) % (1 << 32)
                                     for i in range(4096)]},
            "cores": [{"arf": list(range(32))}]}

CHECKPOINT_DAMAGE = {
    "truncate": (lambda path: corrupt.truncate(path, 0.5), "truncated"),
    "bit-flip": (corrupt.flip_bit, "section-corrupt"),
    "torn-tail": (corrupt.tear_write, "torn-header"),
    "schema-skew": (lambda path: corrupt.skew_header(path, "schema"),
                    "schema-skew"),
}


class Checkpoints:
    """One checkpoint file, rewritten whole by every save."""

    def __init__(self, root):
        os.makedirs(root)
        self.path = str(root / "cell.ckpt")

    def write(self, key):
        write_checkpoint(self.path, {**SECTIONS, "meta": {"key": key}},
                         config_hash="c" * 16, program_hash="p" * 16,
                         cycle=123)

    def load(self):
        """The last saved key, or the kind of the typed read failure."""
        try:
            _, sections = read_checkpoint(self.path)
        except CheckpointError as err:
            return err.kind
        return sections["meta"]["key"]

    def damage(self, name):
        hurt, kind = CHECKPOINT_DAMAGE[name]
        hurt(self.path)
        return kind

    def healed(self):
        return "k3"


STORES = {"campaign-results": CampaignResults, "verdict-cache": Verdicts,
          "summary-cache": Summaries, "fuzz-corpus": FuzzCorpus,
          "checkpoint": Checkpoints}


def _filled(kind, tmp_path):
    target = STORES[kind](tmp_path / "store")
    for key in KEYS:
        target.write(key)
    return target


# -- the matrix ---------------------------------------------------------------

@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("kind", STORES)
def test_corruption_matrix(tmp_path, kind, damage):
    target = _filled(kind, tmp_path)
    expected = target.damage(damage)
    assert target.load() == expected


@pytest.mark.parametrize("kind", STORES)
def test_next_write_heals_a_torn_tail(tmp_path, kind):
    target = _filled(kind, tmp_path)
    target.damage("torn-tail")
    target.write("k3")
    assert target.load() == target.healed()


@pytest.mark.parametrize("kind", STORES)
def test_writes_leave_no_temp_files(tmp_path, kind):
    _filled(kind, tmp_path)   # every write after the first replaces a file
    assert [name for _, _, names in os.walk(tmp_path) for name in names
            if name.endswith(".tmp")] == []


@pytest.mark.parametrize("damage,word,line_no,cell_id", [
    ("truncate", "truncated", 3, ""),
    ("bit-flip", "checksum", 2, "k1"),
    ("schema-skew", "stale", 2, "k1"),
], ids=["truncate", "bit-flip", "schema-skew"])
def test_campaign_report_names_each_rejected_line(tmp_path, damage, word,
                                                  line_no, cell_id):
    target = _filled("campaign-results", tmp_path)
    target.damage(damage)
    _, rejects = target.store.load()
    config = CampaignConfig(figure="figure6", benchmarks=("505.mcf_r",),
                            target_instructions=300)
    report = CampaignOutcome(config=config, cells=[], completed={},
                             failed={}, corrupt=rejects).report()
    [entry] = report["corrupt_records"]
    assert sorted(entry) == ["cell_id", "line_no", "reason"]
    assert word in entry["reason"]
    assert (entry["line_no"], entry["cell_id"]) == (line_no, cell_id)


# -- files written before repro.store load unchanged --------------------------

RESULTS_LINE = (
    '{"attempt":0,"cell":{},"cell_id":"spec:505.mcf_r:none","reseed":0,'
    '"row":{"cycles":1000,"instructions":500},"schema":1,"sha256":'
    '"bb6158fa35826ec8b6ed2b867bc287153eb01f5439ad11f9a308a8496152db93",'
    '"status":"ok"}\n')
# The verdict and summary lines carry their stores' current schemas:
# records from an older analyzer are stale (test_modular_reuse.py).
VERDICT_LINE = (
    '{"key":"k1","row":{"gadget_count":1,"tier":"static","verdicts":'
    '{"none":true,"specasan":false}},"schema":2,"sha256":'
    '"792df5f7ae6f43ee14dd1e27d8981e8959b55a720700e31a32fd83491b0f009b"}\n')
SUMMARY_LINE = (
    '{"key":"k1","payload":{"cross":{},"ret":null},"schema":'
    '"repro-summary/2","sha256":'
    '"9400a3c2720e2a285d7acedb242abb8e0618c1c1da3adb3f3325fc5c7500e0cd"}\n')


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def test_results_line_format_is_stable(tmp_path):
    legacy = ResultStore(str(tmp_path / "legacy"))
    os.makedirs(legacy.run_dir)
    with open(legacy.results_path, "w", encoding="utf-8") as handle:
        handle.write(RESULTS_LINE)
    done, rejects = legacy.completed(["spec:505.mcf_r:none"])
    assert rejects == []
    assert done["spec:505.mcf_r:none"]["row"]["cycles"] == 1000
    fresh = ResultStore(str(tmp_path / "fresh"))
    os.makedirs(fresh.run_dir)
    fresh.append({"cell_id": "spec:505.mcf_r:none", "status": "ok",
                  "attempt": 0, "reseed": 0, "cell": {},
                  "row": {"cycles": 1000, "instructions": 500}})
    assert _read(fresh.results_path) == RESULTS_LINE


def test_verdict_line_format_is_stable(tmp_path):
    row = {"verdicts": {"none": True, "specasan": False},
           "gadget_count": 1, "tier": "static"}
    os.makedirs(tmp_path / "legacy")
    with open(tmp_path / "legacy" / VerdictCache.FILE, "w",
              encoding="utf-8") as handle:
        handle.write(VERDICT_LINE)
    legacy = VerdictCache(str(tmp_path / "legacy"))
    assert (legacy.get("k1"), legacy.rejected) == (row, 0)
    fresh = VerdictCache(str(tmp_path / "fresh"))
    fresh.put("k1", row)
    assert _read(fresh.path) == VERDICT_LINE


def test_summary_line_format_is_stable(tmp_path):
    path = tmp_path / "legacy.jsonl"
    path.write_text(SUMMARY_LINE, encoding="utf-8")
    legacy = SummaryCache(str(path))
    assert (legacy.get("k1"), legacy.rejected) == (
        {"cross": {}, "ret": None}, 0)
    fresh = SummaryCache(str(tmp_path / "fresh.jsonl"))
    fresh.put("k1", {"ret": None, "cross": {}})
    fresh.flush()
    assert _read(fresh.path) == SUMMARY_LINE


# -- the protocol's own edges -------------------------------------------------

def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path = str(tmp_path / "state.json")
    store.atomic_write(path, "old\n")

    def disk_full(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError):
        store.atomic_write(path, "new\n")
    assert _read(path) == "old\n"
    assert os.listdir(tmp_path) == ["state.json"]


def test_missing_record_file_holds_nothing(tmp_path):
    assert store.load_records(str(tmp_path / "absent.jsonl"), 1) == ([], [])


def test_undecodable_bytes_are_one_reject(tmp_path):
    path = str(tmp_path / "records.jsonl")
    store.write_records(path, [{"schema": 1, "n": n} for n in range(3)])
    lines = _lines(path)
    lines[1] = lines[1].replace(b'"n":1', b'"n":\xff')
    _write_lines(path, lines)
    records, rejects = store.load_records(path, 1)
    assert [record["n"] for record in records] == [0, 2]
    assert [reject.line_no for reject in rejects] == [2]


@pytest.mark.parametrize("error", [CampaignError, FuzzError])
def test_manifest_fails_closed_with_the_callers_error(tmp_path, error):
    path = str(tmp_path / "manifest.json")
    with pytest.raises(error, match="no manifest"):
        store.load_manifest(path, 1, error)
    store.atomic_write(path, "{not json")
    with pytest.raises(error, match="unreadable"):
        store.load_manifest(path, 1, error)
    store.atomic_write(path, json.dumps({"schema": 2}))
    with pytest.raises(error, match="schema 2 != supported 1"):
        store.load_manifest(path, 1, error)
    store.atomic_write(path, json.dumps({"schema": 1, "seed": 7}))
    assert store.load_manifest(path, 1, error) == {"schema": 1, "seed": 7}
