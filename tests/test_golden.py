"""Small pipelines keep the output bits recorded in tests/golden.json (see
tests/golden.py, which regenerates the file), and --threads moves none of
them but the manifest's."""

import json
from pathlib import Path

import pytest

import golden

RECORDED = json.loads(golden.GOLDEN.read_text())


def test_golden_covers_every_run():
    assert list(RECORDED) == [*golden.PIPELINES, *golden.VARIANTS, *golden.PROBES]


@pytest.mark.parametrize("name", RECORDED)
def test_outputs_keep_their_bits(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert golden.run(name) == RECORDED[name]


def test_threads_change_only_the_manifest(tmp_path, monkeypatch, capsys):
    # the same field.csv, and the same JSON outputs once each drops its
    # manifest, which records argv and the threads
    outputs = []
    for threads in ("1", "4"):
        (tmp_path / threads).mkdir()
        monkeypatch.chdir(tmp_path / threads)
        record = golden.run_pipeline("2d_33", ["--threads", threads])
        docs = [json.loads(Path("2d_33", file).read_text())
                for file in ("validate.json", "solve_report.json", "certificate.json")]
        assert all(doc.pop("manifest")["threads"] == int(threads) for doc in docs)
        outputs.append((record["field.csv"], json.dumps(docs)))
    assert outputs[0][0] == RECORDED["2d_33"]["field.csv"]
    assert outputs[1] == outputs[0]
