"""The benchmark's traced run wraps package functions by module attribute
(perfbench/spans.py). A rename under src/ would break `--trace 1` without
failing anything else; these tests fail instead."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
from medeir.cli import dispatch  # noqa: E402


@pytest.fixture
def tracer():
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.unwrap_all()


def test_install_wraps_and_unwrap_restores_every_attribute():
    tracer = spans.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.unwrap_all()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)


def test_cli_io_goes_through_the_wrapped_names(tracer, tmp_path):
    src = tmp_path / "raw.jsonl"
    src.write_text(json.dumps({"id": "a", "text": "alpha beta"}) + "\n")
    tracer.begin_stage("pack")
    try:
        assert dispatch(["data", "clean", "--in", str(src),
                         "--out", str(tmp_path / "out.jsonl")]) == 0
    finally:
        tracer.end_stage()
    assert tracer.calls[("pack", "datapipe.jsonl_io")] == 2
