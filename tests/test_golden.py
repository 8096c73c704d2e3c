"""Small pipelines keep the output bits recorded in tests/golden.json (see
tests/golden.py, which regenerates the file)."""

import json

import pytest

import golden

RECORDED = json.loads(golden.GOLDEN.read_text())


def test_golden_covers_every_run():
    assert list(RECORDED) == [*golden.PIPELINES, *golden.PROBES]


@pytest.mark.parametrize("name", RECORDED)
def test_outputs_keep_their_bits(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert golden.run(name) == RECORDED[name]
