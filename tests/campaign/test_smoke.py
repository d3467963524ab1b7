"""The campaign smoke's temp dir: removed when it passes, kept when not."""

import os
import tempfile

import pytest

from repro.campaign import __main__ as cli


@pytest.mark.parametrize("code", [0, 1])
def test_smoke_removes_its_temp_dir_only_when_it_passes(
        tmp_path, monkeypatch, capsys, code):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    bases = []

    def run(base, verbose):
        bases.append(base)
        open(os.path.join(base, "results.jsonl"), "w").close()
        return code

    monkeypatch.setattr(cli, "_smoke", run)
    assert cli.smoke(verbose=False) == code
    [base] = bases
    assert os.path.dirname(base) == str(tmp_path)
    assert os.path.basename(base).startswith("campaign-smoke-")
    kept = code != 0
    assert os.path.isdir(base) is kept
    assert (base in capsys.readouterr().err) is kept


def test_smoke_keeps_a_given_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_smoke", lambda base, verbose: 0)
    assert cli.smoke(str(tmp_path)) == 0
    assert os.path.isdir(tmp_path)
