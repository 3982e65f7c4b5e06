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
from medeir.model import ModelConfig, build_model, save_model  # noqa: E402
from medeir.tokenizer import SPECIAL_TOKENS, Vocabulary  # noqa: E402


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


def test_traced_mlm_converts_one_sequence_per_trained_chunk(tracer, tmp_path):
    words = ["alpha", "beta", "gamma", "delta"]
    vocab = Vocabulary(list(SPECIAL_TOKENS) + words)
    config = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                         ffn_dim=32, num_projections=2, max_train_len=32,
                         max_infer_len=64)
    save_model(tmp_path / "ckpt", build_model(config, seed=1), vocab)
    chunks = tmp_path / "chunks.jsonl"
    first = vocab.id_of[words[0]]
    chunks.write_text("".join(json.dumps({"ids": [first + (i + j) % 4 for j in range(5)]})
                              + "\n" for i in range(10)))
    stage = tmp_path / "mlm.json"
    stage.write_text(json.dumps({"stage": "mlm", "total_steps": 2, "peak_lr": 1e-3,
                                 "beta1": 0.9, "beta2": 0.98, "global_batch": 3,
                                 "grad_accum": 1, "warmup_fraction": 0.25,
                                 "max_len": 8}))
    tracer.begin_stage("mlm")
    try:
        assert dispatch(["train", "mlm", "--config", str(stage), "--data", str(chunks),
                         "--init", str(tmp_path / "ckpt"),
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.end_stage()
    assert tracer.calls[("mlm", "tokenizer.sequence_from_ids")] == 2 * 3
