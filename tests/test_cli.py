"""CLI behavior: subcommand wiring, exit codes, artifacts on disk."""

import argparse
import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

import medeir.checkpoint as checkpoint
import medeir.cli as cli
from medeir.checkpoint import load_arrays, numbered_jsonl, save_arrays
from medeir.cli import dispatch
from medeir.datapipe import read_documents, read_hard_negatives, read_pairs
from medeir.model import ModelConfig, build_model, load_model, save_model
from medeir.tokenizer import SPECIAL_TOKENS, TokenizerModel, Vocabulary, sequence_from_ids
from medeir.training import StageConfig, run_stage

WORDS = ["alpha", "beta", "gamma", "delta", "epsil", "zeta", "eta", "theta"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A workspace with a corpus, a tiny checkpoint, pairs, and a dataset."""
    root = tmp_path_factory.mktemp("cli-ws")

    docs = []
    for i in range(8):
        text = " ".join(WORDS[(i + j) % len(WORDS)] for j in range(6))
        docs.append({"id": f"doc{i}", "text": text})
    corpus = root / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(d) + "\n" for d in docs))

    vocab = Vocabulary(list(SPECIAL_TOKENS) + WORDS)
    config = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                         ffn_dim=32, num_projections=2, max_train_len=32,
                         max_infer_len=128)
    model = build_model(config, seed=7)
    ckpt = root / "ckpt"
    save_model(ckpt, model, vocab)

    pairs = root / "pairs.jsonl"
    rows = [
        {"query": "alpha beta", "positive": "alpha gamma", "source_id": "s"},
        {"query": "delta zeta", "positive": "delta eta", "source_id": "s"},
        {"query": "theta alpha", "positive": "theta beta", "source_id": "s"},
        {"query": "gamma delta", "positive": "gamma zeta", "source_id": "s"},
    ]
    pairs.write_text("".join(json.dumps(r) + "\n" for r in rows))

    ds = root / "dataset"
    ds.mkdir()
    (ds / "queries.jsonl").write_text(
        json.dumps({"id": "q1", "text": "alpha beta"}) + "\n")
    (ds / "corpus.jsonl").write_text("".join(
        json.dumps({"id": f"d{i}", "text": t}) + "\n"
        for i, t in enumerate(["alpha beta", "zeta eta", "gamma delta"])))
    (ds / "qrels.jsonl").write_text(
        json.dumps({"qid": "q1", "did": "d0", "rel": 1}) + "\n")

    return root


class TestTokenizerCommands:
    def test_train_writes_vocab(self, ws, tmp_path, capsys):
        out = tmp_path / "vocab.txt"
        rc = dispatch(["tokenizer", "train", "--corpus", str(ws / "corpus.jsonl"),
                       "--size", "60", "--min-freq", "1", "--out", str(out)])
        assert rc == 0
        vocab = Vocabulary.load(out)
        assert len(vocab) <= 60
        assert "vocabulary" in capsys.readouterr().out

    def test_merge_appends_domain_tokens(self, ws, tmp_path):
        base = tmp_path / "base.txt"
        domain = tmp_path / "domain.txt"
        out = tmp_path / "merged.txt"
        base.write_text("\n".join(list(SPECIAL_TOKENS) + ["alpha"]) + "\n")
        domain.write_text("\n".join(list(SPECIAL_TOKENS) + ["omega"]) + "\n")
        rc = dispatch(["tokenizer", "merge", "--base", str(base),
                       "--domain", str(domain), "--out", str(out)])
        assert rc == 0
        merged = Vocabulary.load(out)
        assert "alpha" in merged and "omega" in merged
        assert merged.tokens[: len(SPECIAL_TOKENS) + 1] == list(SPECIAL_TOKENS) + ["alpha"]

    def test_compare_identical_tokenizers_reports_zero(self, ws, tmp_path, capsys):
        report_path = tmp_path / "cmp.json"
        vocab_path = str(ws / "ckpt" / "vocab.txt")
        rc = dispatch(["tokenizer", "compare", "--a", vocab_path, "--b", vocab_path,
                       "--corpus", str(ws / "corpus.jsonl"),
                       "--report", str(report_path)])
        assert rc == 0
        blob = json.loads(report_path.read_text())
        assert blob["reduction_pct"] == 0.0
        assert "reduction_pct=0.00" in capsys.readouterr().out


class TestDataCommands:
    def test_clean_strips_markup_and_dedups(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        src.write_text("".join(json.dumps(d) + "\n" for d in [
            {"id": "a", "text": "<p>alpha beta</p> see https://x.y now"},
            {"id": "b", "text": "alpha beta see now"},
            {"id": "c", "text": "unrelated gamma"},
        ]))
        out = tmp_path / "clean.jsonl"
        rc = dispatch(["data", "clean", "--in", str(src), "--out", str(out)])
        assert rc == 0
        docs = read_documents(out)
        assert [d.id for d in docs] == ["a", "c"]
        assert docs[0].text == "alpha beta see now"

    def test_pack_writes_id_chunks(self, ws, tmp_path):
        out = tmp_path / "chunks.jsonl"
        rc = dispatch(["data", "pack", "--in", str(ws / "corpus.jsonl"),
                       "--vocab", str(ws / "ckpt" / "vocab.txt"),
                       "--out", str(out), "--chunk-len", "8", "--min-tail", "2"])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines
        assert all(len(l["ids"]) == 8 for l in lines[:-1])
        assert all(isinstance(i, int) for l in lines for i in l["ids"])

    def test_pack_min_tail_zero_exits_one(self, ws, tmp_path, capsys):
        out = tmp_path / "chunks.jsonl"
        rc = dispatch(["data", "pack", "--in", str(ws / "corpus.jsonl"),
                       "--vocab", str(ws / "ckpt" / "vocab.txt"),
                       "--out", str(out), "--chunk-len", "8", "--min-tail", "0"])
        assert rc == 1
        assert "min_tail must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_filter_drop_fraction(self, ws, tmp_path):
        out = tmp_path / "filtered.jsonl"
        rc = dispatch(["data", "filter", "--in", str(ws / "pairs.jsonl"),
                       "--model", str(ws / "ckpt"), "--out", str(out),
                       "--drop-fraction", "0.5"])
        assert rc == 0
        kept = read_pairs(out)
        assert len(kept) == 2
        assert all(p.similarity is not None for p in kept)

    def test_filter_modes_are_exclusive(self, ws, tmp_path, capsys):
        rc = dispatch(["data", "filter", "--in", str(ws / "pairs.jsonl"),
                       "--model", str(ws / "ckpt"), "--out", str(tmp_path / "x"),
                       "--threshold", "0.5", "--drop-fraction", "0.5"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err

    def test_mine_writes_records(self, ws, tmp_path):
        out = tmp_path / "hn.jsonl"
        rc = dispatch(["data", "mine", "--in", str(ws / "pairs.jsonl"),
                       "--corpus", str(ws / "corpus.jsonl"),
                       "--model", str(ws / "ckpt"), "--out", str(out),
                       "--per-query", "2", "--band-lo", "-1.0", "--band-hi", "1.0"])
        assert rc == 0
        records = read_hard_negatives(out)
        assert len(records) == 4
        assert all(len(r.negatives) <= 2 for r in records)
        assert all(r.positive not in r.negatives for r in records)

    @pytest.mark.parametrize("row, message", [
        ({"similarity": "high"}, "'similarity' must be a number, got 'high'"),
        ({"similarity": True}, "'similarity' must be a number, got True"),
        ({"similarity": None}, "'similarity' must be a number, got None"),
        ({"positive": 5}, "'positive' must be a string, got 5"),
        ({"query": ""}, "pair texts must be non-empty"),
    ], ids=["string-similarity", "bool-similarity", "null-similarity",
            "number-positive", "empty-query"])
    def test_bad_pair_exits_one_naming_its_line(self, ws, tmp_path, capsys, row,
                                                message):
        pairs = tmp_path / "pairs.jsonl"
        bad = {"query": "alpha", "positive": "beta"} | row
        pairs.write_text((ws / "pairs.jsonl").read_text() + json.dumps(bad) + "\n")
        out = tmp_path / "kept.jsonl"
        rc = dispatch(["data", "filter", "--in", str(pairs), "--model", str(ws / "ckpt"),
                       "--out", str(out), "--drop-fraction", "0.5"])
        assert rc == 1
        assert f"{pairs}:5: {message}" in capsys.readouterr().err
        assert not out.exists()


def stage_config(tmp_path, stage, **overrides):
    blob = {"stage": stage, "total_steps": 2, "peak_lr": 1e-3, "beta1": 0.9,
            "beta2": 0.98, "global_batch": 2, "grad_accum": 1,
            "warmup_fraction": 0.25, "max_len": 16, "seed": 1}
    blob.update(overrides)
    path = tmp_path / f"{stage}.json"
    path.write_text(json.dumps(blob))
    return path


class TestTrainCommands:
    def test_mlm_stage(self, ws, tmp_path):
        chunks = tmp_path / "chunks.jsonl"
        assert dispatch(["data", "pack", "--in", str(ws / "corpus.jsonl"),
                         "--vocab", str(ws / "ckpt" / "vocab.txt"),
                         "--out", str(chunks), "--chunk-len", "8",
                         "--min-tail", "2"]) == 0
        cfg = stage_config(tmp_path, "mlm")
        out = tmp_path / "ckpt_mlm"
        rc = dispatch(["train", "mlm", "--config", str(cfg),
                       "--data", str(chunks), "--init", str(ws / "ckpt"),
                       "--out", str(out)])
        assert rc == 0
        model, vocab = load_model(out)
        assert model.config.vocab_size == len(vocab)
        log = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
        assert [r["step"] for r in log if "loss" in r] == [1, 2]

    def test_contrastive_stage(self, ws, tmp_path):
        cfg = stage_config(tmp_path, "contrastive")
        out = tmp_path / "ckpt_con"
        rc = dispatch(["train", "contrastive", "--config", str(cfg),
                       "--data", str(ws / "pairs.jsonl"),
                       "--init", str(ws / "ckpt"), "--out", str(out)])
        assert rc == 0
        assert (out / "params.bin").exists()

    def test_hardneg_stage(self, ws, tmp_path):
        hn = tmp_path / "hn.jsonl"
        assert dispatch(["data", "mine", "--in", str(ws / "pairs.jsonl"),
                         "--corpus", str(ws / "corpus.jsonl"),
                         "--model", str(ws / "ckpt"), "--out", str(hn),
                         "--per-query", "1", "--band-lo", "-1.0",
                         "--band-hi", "1.0"]) == 0
        cfg = stage_config(tmp_path, "hard_negative")
        out = tmp_path / "ckpt_hn"
        rc = dispatch(["train", "hardneg", "--config", str(cfg),
                       "--data", str(hn), "--init", str(ws / "ckpt"),
                       "--out", str(out)])
        assert rc == 0
        assert (out / "train_log.jsonl").exists()

    def test_hardneg_on_flagged_mined_records(self, ws, tmp_path):
        hn = tmp_path / "hn.jsonl"
        assert dispatch(["data", "mine", "--in", str(ws / "pairs.jsonl"),
                         "--corpus", str(ws / "corpus.jsonl"),
                         "--model", str(ws / "ckpt"), "--out", str(hn),
                         "--per-query", "3", "--band-lo", "0.7",
                         "--band-hi", "1.0"]) == 0
        records = read_hard_negatives(hn)
        counts = [len(r.negatives) for r in records]
        assert any(r.flagged for r in records)
        assert 0 in counts and max(counts) > 0 and len(set(counts)) > 2
        # one batch of all four records: ragged counts, some of them zero
        cfg = stage_config(tmp_path, "hard_negative", global_batch=4)
        out = tmp_path / "ckpt_hn"
        rc = dispatch(["train", "hardneg", "--config", str(cfg),
                       "--data", str(hn), "--init", str(ws / "ckpt"),
                       "--out", str(out)])
        assert rc == 0
        log = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
        assert [r["step"] for r in log] == [1, 2]
        assert all(np.isfinite(r["loss"]) for r in log)

    def test_stage_mismatch_rejected(self, ws, tmp_path, capsys):
        cfg = stage_config(tmp_path, "contrastive")
        rc = dispatch(["train", "mlm", "--config", str(cfg),
                       "--data", str(ws / "pairs.jsonl"),
                       "--init", str(ws / "ckpt"), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "declares stage" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"stage": "mlm", "total_steps": 2,
                                   "peak_lr": 1e-3, "beta1": 0.9, "beta2": 0.98,
                                   "global_batch": 2, "grad_accum": 1,
                                   "warmup_fraction": 0.25, "typo_key": 5}))
        rc = dispatch(["train", "mlm", "--config", str(cfg),
                       "--data", str(ws / "pairs.jsonl"),
                       "--init", str(ws / "ckpt"), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "typo_key" in capsys.readouterr().err

    def test_beta1_of_one_exits_one_without_checkpoint(self, ws, tmp_path, capsys):
        # beta1 = 1 makes AdamW's bias correction 1 - beta1**t zero: every
        # parameter would be written as NaN
        chunks = tmp_path / "chunks.jsonl"
        assert dispatch(["data", "pack", "--in", str(ws / "corpus.jsonl"),
                         "--vocab", str(ws / "ckpt" / "vocab.txt"),
                         "--out", str(chunks), "--chunk-len", "8",
                         "--min-tail", "2"]) == 0
        cfg = stage_config(tmp_path, "mlm", total_steps=1, beta1=1.0)
        out = tmp_path / "ckpt_mlm"
        rc = dispatch(["train", "mlm", "--config", str(cfg),
                       "--data", str(chunks), "--init", str(ws / "ckpt"),
                       "--out", str(out)])
        assert rc == 1
        assert "beta1 must be in [0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_mlm_chunks_longer_than_max_len_exit_one(self, ws, tmp_path, capsys):
        chunks = tmp_path / "chunks.jsonl"
        assert dispatch(["data", "pack", "--in", str(ws / "corpus.jsonl"),
                         "--vocab", str(ws / "ckpt" / "vocab.txt"),
                         "--out", str(chunks), "--chunk-len", "8",
                         "--min-tail", "2"]) == 0
        cfg = stage_config(tmp_path, "mlm", max_len=4)
        out = tmp_path / "ckpt_mlm"
        rc = dispatch(["train", "mlm", "--config", str(cfg),
                       "--data", str(chunks), "--init", str(ws / "ckpt"),
                       "--out", str(out)])
        assert rc == 1
        assert "exceeds max_len 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ids", [[5, "x", 6], 5, [5, True], [5, 6.0], [5, 99], [-1]],
                             ids=["string", "not-a-list", "bool", "float", "past-vocab",
                                  "negative"])
    def test_mlm_chunk_ids_that_are_not_token_ids_exit_one(self, ws, tmp_path, capsys,
                                                           ids):
        chunks = tmp_path / "chunks.jsonl"
        chunks.write_text(json.dumps({"ids": [5, 6, 7]}) + "\n"
                          + json.dumps({"ids": ids}) + "\n")
        out = tmp_path / "ckpt_mlm"
        rc = dispatch(["train", "mlm", "--config", str(stage_config(tmp_path, "mlm")),
                       "--data", str(chunks), "--init", str(ws / "ckpt"),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{chunks}:2: 'ids' must be a list of token ids" in err
        assert not out.exists()

    def test_config_that_is_not_an_object_exits_one(self, ws, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        rc = dispatch(["train", "mlm", "--config", str(cfg),
                       "--data", str(ws / "pairs.jsonl"),
                       "--init", str(ws / "ckpt"), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"{cfg}: expected a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("temperature", "0.05"), ("max_len", "128"), ("seed", 1.5),
        ("total_steps", True), ("peak_lr", False)])
    def test_wrongly_typed_field_exits_one(self, ws, tmp_path, capsys, field, value):
        cfg = stage_config(tmp_path, "contrastive", **{field: value})
        out = tmp_path / "x"
        rc = dispatch(["train", "contrastive", "--config", str(cfg),
                       "--data", str(ws / "pairs.jsonl"),
                       "--init", str(ws / "ckpt"), "--out", str(out)])
        assert rc == 1
        assert f"invalid StageConfig: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("max_len", 0), ("mask_rate", 0.0), ("mask_rate", 1.5), ("temperature", 0.0),
        ("temperature", -0.05), ("warmup_fraction", 0.0), ("warmup_fraction", 1.0)])
    def test_out_of_range_field_exits_one_before_the_model_loads(
            self, ws, tmp_path, capsys, field, value):
        chunks = tmp_path / "chunks.jsonl"
        write_chunks(chunks, 4)
        out = tmp_path / "x"
        rc = dispatch(["train", "mlm",
                       "--config", str(stage_config(tmp_path, "mlm", **{field: value})),
                       "--data", str(chunks), "--init", str(tmp_path / "no-checkpoint"),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{field} must be" in err and "checkpoint directory" not in err
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ({"flagged": "no"}, "'flagged' must be true or false, got 'no'"),
        ({"flagged": 1}, "'flagged' must be true or false, got 1"),
        ({"negatives": "gamma"}, "'negatives' must be a list of strings"),
        ({"query": 7}, "'query' must be a string, got 7"),
        ({"negatives": ["beta"]}, "positive must not appear among negatives"),
        ({"negatives": []}, "empty negatives are only allowed on flagged records"),
    ], ids=["string-flagged", "number-flagged", "string-negatives", "number-query",
            "positive-among-negatives", "empty-unflagged"])
    def test_bad_hard_negative_record_exits_one_naming_its_line(
            self, ws, tmp_path, capsys, row, message):
        good = {"query": "alpha", "positive": "beta", "negatives": ["gamma"],
                "source_id": "s"}
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(good) + "\n" + json.dumps(good | row) + "\n")
        out = tmp_path / "x"
        rc = dispatch(["train", "hardneg",
                       "--config", str(stage_config(tmp_path, "hard_negative")),
                       "--data", str(records), "--init", str(ws / "ckpt"),
                       "--out", str(out)])
        assert rc == 1
        assert f"{records}:2: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_grad_accum_exits_one(self, ws, tmp_path, capsys):
        cfg = stage_config(tmp_path, "mlm", grad_accum=0)
        out = tmp_path / "x"
        rc = dispatch(["train", "mlm", "--config", str(cfg),
                       "--data", str(ws / "pairs.jsonl"),
                       "--init", str(ws / "ckpt"), "--out", str(out)])
        assert rc == 1
        assert "grad_accum must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def write_chunks(path, count, tail=""):
    """count six-token chunks of word ids, then tail; returns their id lists."""
    chunks = [[5 + (i + j) % len(WORDS) for j in range(6)] for i in range(count)]
    path.write_text("".join(json.dumps({"ids": ids}) + "\n" for ids in chunks) + tail)
    return chunks


def train_mlm(ws, tmp_path, chunks, out, **overrides):
    return dispatch(["train", "mlm",
                     "--config", str(stage_config(tmp_path, "mlm", **overrides)),
                     "--data", str(chunks), "--init", str(ws / "ckpt"),
                     "--out", str(out)])


def read_log(out):
    return [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]


class TestStreamedMlm:
    """train mlm reads its chunk file one line at a time, as far as its
    steps go, and closes it when the stage ends."""

    @pytest.mark.parametrize("grad_accum", [1, 2])
    def test_bytes_equal_run_stage_on_the_materialized_list(self, ws, tmp_path,
                                                            grad_accum):
        chunks = tmp_path / "chunks.jsonl"
        write_chunks(chunks, 13)
        out = tmp_path / "streamed"
        overrides = dict(total_steps=3, global_batch=4, grad_accum=grad_accum)
        assert train_mlm(ws, tmp_path, chunks, out, **overrides) == 0

        model, vocab = load_model(ws / "ckpt")
        data = list(numbered_jsonl(chunks, lambda row: sequence_from_ids(vocab, row["ids"])))
        config = StageConfig.from_dict(
            json.loads(stage_config(tmp_path, "mlm", **overrides).read_text()))
        listed = tmp_path / "listed"
        run_stage(config, model, TokenizerModel(vocab), data, out_dir=listed,
                  log_path=listed / "train_log.jsonl")
        for name in ("params.bin", "train_log.jsonl"):
            assert (out / name).read_bytes() == (listed / name).read_bytes(), name

    def test_converts_exactly_the_trained_chunks(self, ws, tmp_path, monkeypatch):
        converted = []
        convert = cli.sequence_from_ids
        monkeypatch.setattr(cli, "sequence_from_ids",
                            lambda vocab, ids: converted.append(ids) or convert(vocab, ids))
        chunks = tmp_path / "chunks.jsonl"
        rows = write_chunks(chunks, 20)
        out = tmp_path / "ckpt_mlm"
        assert train_mlm(ws, tmp_path, chunks, out, total_steps=3, global_batch=4,
                         grad_accum=2) == 0
        assert converted == rows[:3 * 4]
        assert [r["step"] for r in read_log(out)] == [1, 2, 3]

    def test_line_after_the_trained_chunks_is_not_read(self, ws, tmp_path):
        chunks = tmp_path / "chunks.jsonl"
        write_chunks(chunks, 4, tail="not json\n")
        out = tmp_path / "ckpt_mlm"
        assert train_mlm(ws, tmp_path, chunks, out) == 0  # 2 steps x 2 chunks
        assert [r["step"] for r in read_log(out)] == [1, 2]

    def test_short_file_drops_the_partial_accumulation(self, ws, tmp_path):
        chunks = tmp_path / "chunks.jsonl"
        write_chunks(chunks, 3)
        out = tmp_path / "ckpt_mlm"
        assert train_mlm(ws, tmp_path, chunks, out, global_batch=2, grad_accum=2) == 0
        log = read_log(out)
        assert [r["step"] for r in log if "loss" in r] == [1]
        assert log[-1] == {"step": 2, "stage": "mlm",
                           "event": "partial_accumulation_dropped", "micro_batches": 1}

    def test_chunk_longer_than_max_len_names_file_and_line(self, ws, tmp_path, capsys):
        chunks = tmp_path / "chunks.jsonl"
        chunks.write_text(json.dumps({"ids": [5, 6, 7]}) + "\n"
                          + json.dumps({"ids": [5, 6, 7, 8, 9, 10]}) + "\n")
        out = tmp_path / "ckpt_mlm"
        assert train_mlm(ws, tmp_path, chunks, out, max_len=4) == 1
        err = capsys.readouterr().err
        assert f"{chunks}:2: an MLM sequence of 6 tokens exceeds max_len 4" in err
        assert "internal error" not in err and not out.exists()

    @pytest.mark.parametrize("ids", [[], [3], [2, 3]], ids=["empty", "sep", "cls-sep"])
    def test_chunk_with_no_word_names_file_and_line(self, ws, tmp_path, capsys, ids):
        chunks = tmp_path / "chunks.jsonl"
        chunks.write_text(json.dumps({"ids": [5, 6, 7]}) + "\n"
                          + json.dumps({"ids": ids}) + "\n")
        out = tmp_path / "ckpt_mlm"
        assert train_mlm(ws, tmp_path, chunks, out) == 1
        err = capsys.readouterr().err
        assert f"{chunks}:2: an MLM sequence needs a word to mask, got {ids!r}" in err
        assert not out.exists()

    def test_run_stage_still_rejects_a_sequence_longer_than_max_len(self, ws, tmp_path):
        model, vocab = load_model(ws / "ckpt")
        config = StageConfig.from_dict(
            json.loads(stage_config(tmp_path, "mlm", max_len=4).read_text()))
        data = [sequence_from_ids(vocab, [5, 6, 7, 8, 9, 10])] * 2
        with pytest.raises(ValueError,
                           match="an MLM sequence of 6 tokens exceeds max_len 4"):
            run_stage(config, model, TokenizerModel(vocab), data)

    @pytest.mark.parametrize("max_len, code", [(16, 0), (4, 1)],
                             ids=["success", "failure"])
    def test_chunk_file_is_closed_when_the_stage_ends(self, ws, tmp_path, monkeypatch,
                                                      max_len, code):
        streams, handles = [], []
        load = cli._load_stage_data
        monkeypatch.setattr(cli, "_load_stage_data",
                            lambda *args: streams.append(load(*args)) or streams[-1])

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(checkpoint, "open", recording_open, raising=False)
        chunks = tmp_path / "chunks.jsonl"
        write_chunks(chunks, 8)
        out = tmp_path / "ckpt_mlm"
        # 6-token chunks: max_len 4 fails the first micro-batch
        assert train_mlm(ws, tmp_path, chunks, out, max_len=max_len) == code
        assert out.exists() == (code == 0)
        # streams still refers to the generator, so only the stage can have
        # closed it
        [stream] = streams
        assert stream.gi_frame is None
        assert [fh.closed for fh in handles if fh.name == str(chunks)] == [True]


class TestEmbedCommand:
    def test_unit_vector_json_line(self, ws, capsys):
        rc = dispatch(["embed", "--model", str(ws / "ckpt"),
                       "--text", "alpha beta"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        blob = json.loads(out[0])
        assert blob["dim"] == 16
        assert len(blob["vector"]) == 16
        assert np.linalg.norm(blob["vector"]) == pytest.approx(1.0, abs=1e-5)


class TestEvalCommands:
    def test_eval_run_writes_report(self, ws, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = dispatch(["eval", "run", "--model", str(ws / "ckpt"),
                       "--dataset", str(ws / "dataset"), "--k", "3",
                       "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert {r["metric"] for r in report["rows"]} == {"ndcg@3", "recall@3"}
        assert report["metadata"]["k"] == 3
        assert report["metadata"]["checkpoint_hashes"]["ckpt"]
        table = capsys.readouterr().out
        assert "dataset" in table and "ckpt" in table

    @pytest.mark.parametrize("rel", [[1], 1.9, 1.0, True, -1, "1", None],
                             ids=["list", "fraction", "float", "bool", "negative",
                                  "string", "missing"])
    def test_grade_that_is_not_a_non_negative_integer_exits_one(self, ws, tmp_path,
                                                                capsys, rel):
        ds = tmp_path / "dataset"
        shutil.copytree(ws / "dataset", ds)
        bad = {"qid": "q1", "did": "d1"} | ({} if rel is None else {"rel": rel})
        qrels = ds / "qrels.jsonl"
        qrels.write_text(json.dumps({"qid": "q1", "did": "d0", "rel": 2}) + "\n\n"
                         + json.dumps(bad) + "\n")
        out = tmp_path / "report.json"
        rc = dispatch(["eval", "run", "--model", str(ws / "ckpt"), "--dataset", str(ds),
                       "--k", "3", "--out", str(out)])
        assert rc == 1
        assert f"{qrels}:3: 'rel' must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [None, 7, True], ids=["missing", "number", "bool"])
    @pytest.mark.parametrize("name, row, key", [
        ("queries", {"id": "q2", "text": "zeta"}, "id"),
        ("corpus", {"id": "d3", "text": "eta"}, "id"),
        ("qrels", {"qid": "q1", "did": "d1", "rel": 1}, "qid"),
        ("qrels", {"qid": "q1", "did": "d1", "rel": 1}, "did"),
    ], ids=["query-id", "doc-id", "qid", "did"])
    def test_id_that_is_not_a_string_exits_one(self, ws, tmp_path, capsys, name, row,
                                               key, value):
        ds = tmp_path / "dataset"
        shutil.copytree(ws / "dataset", ds)
        path = ds / f"{name}.jsonl"
        bad = {k: v for k, v in row.items() if k != key}
        if value is not None:
            bad[key] = value
        lines = path.read_text().splitlines() + [json.dumps(bad)]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        rc = dispatch(["eval", "run", "--model", str(ws / "ckpt"), "--dataset", str(ds),
                       "--k", "3", "--out", str(out)])
        assert rc == 1
        expected = f"{path}:{len(lines)}: {key!r} must be a string, got {value!r}"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["queries", "corpus"])
    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows + [{"id": "new", "text": 7}], "'text' must be a string, got 7"),
        (lambda rows: rows + [rows[0]], "duplicate id"),
    ], ids=["number-text", "duplicate-id"])
    def test_bad_id_text_row_exits_one_naming_the_line(self, ws, tmp_path, capsys, name,
                                                       edit, message):
        ds = tmp_path / "dataset"
        shutil.copytree(ws / "dataset", ds)
        path = ds / f"{name}.jsonl"
        rows = edit([json.loads(line) for line in path.read_text().splitlines()])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "report.json"
        rc = dispatch(["eval", "run", "--model", str(ws / "ckpt"), "--dataset", str(ds),
                       "--k", "3", "--out", str(out)])
        assert rc == 1
        assert f"{path}:{len(rows)}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_compare_two_models(self, ws, tmp_path, capsys):
        model, vocab = load_model(ws / "ckpt")
        other = tmp_path / "ckpt2"
        save_model(other, model, vocab)
        out = tmp_path / "cmp.json"
        rc = dispatch(["eval", "compare",
                       "--models", f"{ws / 'ckpt'},{other}",
                       "--datasets", str(ws / "dataset"), "--k", "2",
                       "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 4
        keys = [(r["dataset"], r["model"]) for r in rows]
        assert keys == sorted(keys)
        assert "ckpt2" in capsys.readouterr().out


    def test_malformed_line_with_a_cache_exits_one_and_writes_no_entry(
            self, ws, tmp_path, capsys, monkeypatch):
        ds = tmp_path / "dataset"
        shutil.copytree(ws / "dataset", ds)
        qrels = ds / "qrels.jsonl"
        qrels.write_text(qrels.read_text() + '{"qid": "q1", "did": \n')
        cache = tmp_path / "cache"
        monkeypatch.setenv("MEDEIR_CACHE", str(cache))
        out = tmp_path / "report.json"
        rc = dispatch(["eval", "run", "--model", str(ws / "ckpt"), "--dataset", str(ds),
                       "--k", "3", "--out", str(out)])
        assert rc == 1
        assert f"{qrels}:2: invalid JSON line" in capsys.readouterr().err
        assert not out.exists()
        assert not cache.exists()

    def test_warm_eval_run_reads_no_dataset_line(self, ws, tmp_path, capsys,
                                                 monkeypatch, dataset_reads):
        cache = tmp_path / "cache"
        monkeypatch.setenv("MEDEIR_CACHE", str(cache))
        outs = [tmp_path / "cold.json", tmp_path / "warm.json"]
        for out in outs:
            assert dispatch(["eval", "run", "--model", str(ws / "ckpt"),
                             "--dataset", str(ws / "dataset"), "--k", "3",
                             "--out", str(out)]) == 0
        assert len(dataset_reads) == 3
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(list(cache.glob("dataset-*.json"))) == 1
        assert len(list(cache.glob("*.npz"))) == 1

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_eval_compare_parses_each_dataset_once(self, ws, tmp_path, capsys,
                                                   monkeypatch, dataset_reads, cached):
        model, vocab = load_model(ws / "ckpt")
        other = tmp_path / "ckpt2"
        save_model(other, model, vocab)
        second = tmp_path / "second"
        shutil.copytree(ws / "dataset", second)
        (second / "queries.jsonl").write_text(
            json.dumps({"id": "q1", "text": "zeta eta"}) + "\n")
        if cached:
            monkeypatch.setenv("MEDEIR_CACHE", str(tmp_path / "cache"))
        rc = dispatch(["eval", "compare", "--models", f"{ws / 'ckpt'},{other}",
                       "--datasets", f"{ws / 'dataset'},{second}", "--k", "2"])
        assert rc == 0
        assert sorted(dataset_reads) == sorted(d / f"{part}.jsonl"
                                       for d in (ws / "dataset", second)
                                       for part in ("queries", "corpus", "qrels"))

    def test_eval_compare_rejects_two_models_of_one_name(self, ws, tmp_path, capsys):
        other = tmp_path / "b" / "ckpt"
        shutil.copytree(ws / "ckpt", other)
        out = tmp_path / "cmp.json"
        rc = dispatch(["eval", "compare", "--models", f"{ws / 'ckpt'},{other}",
                       "--datasets", str(ws / "dataset"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "two models are named 'ckpt'" in err
        assert not out.exists()

    def test_eval_compare_rejects_two_datasets_of_one_name(self, ws, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        for directory in (first, second):
            shutil.copytree(ws / "dataset", directory)
            (directory / "dataset.json").write_text('{"name": "same"}')
        out = tmp_path / "cmp.json"
        rc = dispatch(["eval", "compare", "--models", str(ws / "ckpt"),
                       "--datasets", f"{first},{second}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "two datasets are named 'same'" in err
        assert not out.exists()

    @pytest.mark.parametrize("content", ["{}", "[1]", '{"name": 7}'],
                             ids=["no-name", "list", "number"])
    def test_bad_dataset_json_exits_one_naming_it(self, ws, tmp_path, capsys, content):
        ds = tmp_path / "dataset"
        shutil.copytree(ws / "dataset", ds)
        (ds / "dataset.json").write_text(content)
        rc = dispatch(["eval", "run", "--model", str(ws / "ckpt"), "--dataset", str(ds),
                       "--k", "3", "--out", str(tmp_path / "report.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{ds / 'dataset.json'}: " in err and "internal error" not in err


def edited_checkpoint(ws, tmp_path, **changes):
    """A copy of the workspace checkpoint with config.json fields changed."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(ws / "ckpt", ckpt)
    blob = json.loads((ckpt / "config.json").read_text())
    blob.update(changes)
    (ckpt / "config.json").write_text(json.dumps(blob))
    return ckpt


def _edit_json(path, edit):
    """Rewrite the JSON object in path after edit(blob) changes it."""
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))


class TestExitCodes:
    def test_checkpoint_config_with_unknown_key_exits_one(self, ws, tmp_path, capsys):
        ckpt = edited_checkpoint(ws, tmp_path, dropout=0.1)
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        assert "unknown ModelConfig keys: ['dropout']" in capsys.readouterr().err

    def test_checkpoint_config_with_wrong_type_exits_one(self, ws, tmp_path, capsys):
        ckpt = edited_checkpoint(ws, tmp_path, hidden="16")
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        assert "invalid ModelConfig" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("layers", "1"), ("hidden", True), ("adaptive_cutoffs", [5, 13.0])])
    def test_checkpoint_config_field_of_wrong_json_type_exits_one(
            self, ws, tmp_path, capsys, field, value):
        ckpt = edited_checkpoint(ws, tmp_path, **{field: value})
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        assert f"invalid ModelConfig: {field} must be" in capsys.readouterr().err

    def test_format_one_checkpoint_exits_one_naming_both_versions(
            self, ws, tmp_path, capsys):
        # a format-1 checkpoint: each layer's key bias and two more config keys
        ckpt = edited_checkpoint(ws, tmp_path, format_version=1,
                                 tail_reduction_factor=4, layer_norm_eps=1e-12)
        arrays = load_arrays(ckpt)
        arrays["layers.0.bk"] = np.zeros(16, dtype=np.float32)
        save_arrays(ckpt, arrays)
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "model format 1" in err and "model format 2" in err

    @pytest.mark.parametrize("damage, message", [
        (lambda c: _edit_json(c / "config.json", lambda b: b.pop("format_version")),
         "config.json: model config missing format_version"),
        (lambda c: (c / "vocab.txt").write_text((c / "vocab.txt").read_text() + "extra\n"),
         "vocab.txt: does not match the hash recorded in config.json"),
        (lambda c: _edit_json(c / "config.json", lambda b: b.update(ffn_dim=24)),
         "manifest.json: shape mismatch for layers.0.w_ffn_in"),
        (lambda c: _edit_json(c / "manifest.json", lambda b: b.update(version=99)),
         "manifest.json: unsupported checkpoint version 99"),
    ], ids=["no-format-version", "vocab-hash", "shape", "checkpoint-version"])
    def test_bad_checkpoint_in_compare_exits_one_naming_its_directory(
            self, ws, tmp_path, capsys, damage, message):
        bad = tmp_path / "bad"
        shutil.copytree(ws / "ckpt", bad)
        damage(bad)
        rc = dispatch(["eval", "compare", "--models", f"{ws / 'ckpt'},{bad}",
                       "--datasets", str(ws / "dataset"),
                       "--out", str(tmp_path / "cmp.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}/{message}" in err and "internal error" not in err
        assert not (tmp_path / "cmp.json").exists()

    @pytest.mark.parametrize("stop", [lambda n: n // 2, lambda n: n - 8],
                             ids=["half", "last-8-bytes"])
    def test_truncated_params_bin_exits_one(self, ws, tmp_path, capsys, stop):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws / "ckpt", ckpt)
        blob = (ckpt / "params.bin").read_bytes()
        (ckpt / "params.bin").write_bytes(blob[:stop(len(blob))])
        with pytest.raises(ValueError):
            load_arrays(ckpt)
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        err = capsys.readouterr().err
        assert f"{ckpt / 'params.bin'}: holds {stop(len(blob))} bytes" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("damage, named", [
        ("overlap", "manifest.json"), ("gap", "manifest.json"),
        ("trailing-bytes", "params.bin")])
    def test_params_bin_off_the_manifest_layout_exits_one(self, ws, tmp_path, capsys,
                                                          damage, named):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws / "ckpt", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        entries = manifest["tensors"]
        blob = (ckpt / "params.bin").read_bytes()
        if damage == "overlap":     # the third tensor would alias the second's bytes
            entries[2]["offset"] = entries[1]["offset"]
        elif damage == "gap":       # 4 stray bytes before the third, later offsets moved
            cut = entries[2]["offset"]
            blob = blob[:cut] + bytes(4) + blob[cut:]
            for entry in entries[2:]:
                entry["offset"] += 4
        else:
            blob += bytes(4)
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        (ckpt / "params.bin").write_bytes(blob)
        with pytest.raises(ValueError, match=re.escape(f"{ckpt / named}: ")):
            load_arrays(ckpt)
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        err = capsys.readouterr().err
        assert f"{ckpt / named}: " in err and "internal error" not in err

    def test_config_without_vocab_hash_exits_one_naming_it(self, ws, tmp_path, capsys):
        ckpt = edited_checkpoint(ws, tmp_path)
        _edit_json(ckpt / "config.json", lambda b: b.pop("vocab_sha256"))
        (ckpt / "vocab.txt").write_text((ckpt / "vocab.txt").read_text() + "extra\n")
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        err = capsys.readouterr().err
        assert f"{ckpt / 'config.json'}: model config missing vocab_sha256" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("edit, field", [
        (lambda m: m.pop("tensors"), "'tensors'"),
        (lambda m: m["tensors"][0].update(dtype="float16"), "'dtype'"),
        (lambda m: m["tensors"][0].pop("offset"), "'offset'"),
        (lambda m: m["tensors"][0].update(shape=[4, "16"]), "'shape'"),
    ], ids=["no-tensors", "float16", "no-offset", "string-dim"])
    def test_corrupt_manifest_exits_one_naming_it(self, ws, tmp_path, capsys, edit,
                                                   field):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws / "ckpt", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        edit(manifest)
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        err = capsys.readouterr().err
        assert f"{ckpt / 'manifest.json'}: " in err and field in err
        assert "internal error" not in err

    def test_checkpoint_without_token_order_exits_one_naming_it(self, ws, tmp_path,
                                                                capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws / "ckpt", ckpt)
        arrays = load_arrays(ckpt)
        del arrays["mlm.token_order"]
        save_arrays(ckpt, arrays)
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        err = capsys.readouterr().err
        assert f"{ckpt / 'manifest.json'}: " in err and "mlm.token_order" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("order", [
        lambda v: np.zeros(v, dtype=np.int64),
        lambda v: np.r_[0, np.arange(v - 1)],
        lambda v: np.arange(1, v + 1),
    ], ids=["all-zero", "repeated-id", "out-of-range"])
    def test_token_order_that_is_not_a_permutation_exits_one(self, ws, tmp_path,
                                                              capsys, order):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws / "ckpt", ckpt)
        arrays = load_arrays(ckpt)
        arrays["mlm.token_order"] = order(arrays["mlm.token_order"].size)
        save_arrays(ckpt, arrays)
        assert dispatch(["embed", "--model", str(ckpt), "--text", "alpha"]) == 1
        err = capsys.readouterr().err
        assert "mlm.token_order is not a permutation" in err
        assert "internal error" not in err

    def test_internal_key_error_exits_two(self, ws, capsys, monkeypatch):
        def broken(*args):
            raise KeyError("not a user error")

        monkeypatch.setattr(cli, "embed_text", broken)
        assert dispatch(["embed", "--model", str(ws / "ckpt"), "--text", "alpha"]) == 2
        assert "internal error: KeyError" in capsys.readouterr().err

    def test_text_that_is_not_a_string_exits_one(self, tmp_path, capsys):
        src = tmp_path / "raw.jsonl"
        src.write_text('{"id": "1", "text": 123}\n')
        rc = dispatch(["data", "clean", "--in", str(src),
                       "--out", str(tmp_path / "out.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "internal error" not in err and str(src) in err

    @pytest.mark.parametrize("row, message", [
        ({"id": "2", "text": 123}, "'text' must be a string, got 123"),
        ({"id": "2"}, "a record has no 'text' field"),
        ({"id": "2", "text": "x", "source": 7}, "'source' must be a string, got 7"),
        ({"id": "1", "text": "again"}, "duplicate id '1'"),
    ], ids=["number-text", "no-text", "number-source", "duplicate-id"])
    def test_bad_document_row_exits_one_naming_the_line(self, tmp_path, capsys, row,
                                                         message):
        src = tmp_path / "raw.jsonl"
        src.write_text(json.dumps({"id": "1", "text": "alpha beta"}) + "\n"
                       + json.dumps(row) + "\n")
        rc = dispatch(["data", "clean", "--in", str(src),
                       "--out", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert f"{src}:2: {message}" in capsys.readouterr().err

    def test_unknown_flag_exits_one_with_usage(self, capsys):
        rc = dispatch(["tokenizer", "train", "--bogus", "x"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        rc = dispatch(["data", "clean", "--in", str(tmp_path / "ghost.jsonl"),
                       "--out", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_line_names_file_and_line(self, tmp_path, capsys):
        src = tmp_path / "raw.jsonl"
        src.write_text('{"id": "a", "text": "alpha"}\n{"id": "b", "text": \n')
        rc = dispatch(["data", "clean", "--in", str(src),
                       "--out", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert f"{src}:2" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        capsys.readouterr()
        for command in (["tokenizer", "--help"], ["data", "pack", "--help"],
                        ["train", "mlm", "--help"], ["embed", "--help"],
                        ["eval", "run", "--help"]):
            assert dispatch(command) == 0
            assert "usage" in capsys.readouterr().out

    def test_internal_error_exits_two(self, capsys):
        def boom(args):
            raise RuntimeError("wires crossed")

        ns = argparse.Namespace(func=boom)
        assert cli._execute(ns) == 2
        assert "internal error" in capsys.readouterr().err


def _bad_input(ws, tmp_path, kind):
    """(argv, path, line) for a run whose input of the given kind holds a
    bad row on line 2 (line None: a bad whole file)."""
    ckpt, ds = ws / "ckpt", tmp_path / "dataset"
    shutil.copytree(ws / "dataset", ds)
    good_chunk = {"ids": [5, 6, 7]}

    def jsonl(name, good, bad):
        path = tmp_path / name
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        return path

    def train(stage, data, config=None):
        config = config or stage_config(tmp_path, cli._STAGE_BY_COMMAND[stage])
        return ["train", stage, "--config", str(config), "--data", str(data),
                "--init", str(ckpt), "--out", str(tmp_path / "out")]

    def eval_run(model=ckpt):
        return ["eval", "run", "--model", str(model), "--dataset", str(ds),
                "--out", str(tmp_path / "report.json")]

    def broken_checkpoint(name, content):
        copy = tmp_path / "ckpt"
        shutil.copytree(ckpt, copy)
        (copy / name).write_text(content)
        return copy, copy / name

    if kind == "documents":
        path = jsonl("docs.jsonl", {"id": "a", "text": "alpha"}, {"id": "b", "text": 5})
        return ["data", "clean", "--in", str(path), "--out", str(tmp_path / "o")], path, 2
    if kind == "pairs":
        path = jsonl("pairs.jsonl", {"query": "a", "positive": "b"}, {"query": "a"})
        return ["data", "filter", "--in", str(path), "--model", str(ckpt),
                "--out", str(tmp_path / "o"), "--threshold", "0"], path, 2
    if kind == "mined":
        path = jsonl("mined.jsonl", {"query": "a", "positive": "b", "negatives": ["c"]},
                     {"query": "a", "positive": "b", "negatives": "c"})
        return train("hardneg", path), path, 2
    if kind == "chunks":
        path = jsonl("chunks.jsonl", good_chunk, {"ids": [2, 3]})
        return train("mlm", path), path, 2
    if kind in ("queries", "corpus"):
        path = ds / f"{kind}.jsonl"
        path.write_text(path.read_text() + json.dumps({"id": 7, "text": "a"}) + "\n")
        return eval_run(), path, len(path.read_text().splitlines())
    if kind == "qrels":
        path = ds / "qrels.jsonl"
        path.write_text(path.read_text() + json.dumps({"qid": "q1", "did": "d0"}) + "\n")
        return eval_run(), path, 2
    if kind == "stage-config":
        path = tmp_path / "mlm.json"
        path.write_text('{"stage": ')
        chunks = jsonl("chunks.jsonl", good_chunk, good_chunk)
        return train("mlm", chunks, config=path), path, None
    if kind in ("config.json", "manifest.json"):
        copy, path = broken_checkpoint(kind, "[1]" if kind == "config.json" else "{x")
        return eval_run(copy), path, None
    path = tmp_path / "vocab.txt"
    if kind == "vocab-repeat":
        path.write_text("\n".join(list(SPECIAL_TOKENS) + ["alpha", "alpha"]) + "\n")
        return ["tokenizer", "merge", "--base", str(path), "--domain",
                str(ckpt / "vocab.txt"), "--out", str(tmp_path / "o")], path, None
    path.write_bytes("\n".join(SPECIAL_TOKENS).encode() + b"\n\xff\n")
    return ["data", "pack", "--in", str(ws / "corpus.jsonl"), "--vocab", str(path),
            "--out", str(tmp_path / "o")], path, None


@pytest.mark.parametrize("kind", [
    "documents", "pairs", "mined", "chunks", "queries", "corpus", "qrels",
    "stage-config", "config.json", "manifest.json", "vocab-repeat", "vocab-not-utf8"])
def test_every_input_error_starts_with_its_path(ws, tmp_path, capsys, kind):
    """A bad row names path:line, a bad whole file names its path, first."""
    argv, path, line = _bad_input(ws, tmp_path, kind)
    assert dispatch(argv) == 1
    where = str(path) if line is None else f"{path}:{line}"
    err = capsys.readouterr().err
    assert err.startswith(f"medeir: error: {where}: "), err


def readme_commands() -> list[str]:
    """Every line of README.md's code blocks that runs the medeir command."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("medeir ")]


def test_readme_commands_parse():
    lines = readme_commands()
    # the README shows every command group
    assert {shlex.split(line)[1] for line in lines} == {
        "tokenizer", "data", "train", "embed", "eval"}
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except cli.UserError as err:
            pytest.fail(f"README command does not parse: {line}\n{err}")
