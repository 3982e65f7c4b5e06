"""A small end-to-end pipeline run.

run_smoke_pipeline drives the real CLI from raw corpus to an evaluation
report in a few seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

from .checkpoint import atomic_write_text
from .datapipe import CorpusDocument, SentencePair, write_documents, write_pairs
from .evaluation import RetrievalDataset, save_dataset
from .fixtures import load_mini_corpus
from .model import ModelConfig, build_model, save_model
from .tokenizer import Vocabulary


def _require(rc: int, step: str) -> None:
    if rc != 0:
        raise RuntimeError(f"smoke pipeline step failed (exit {rc}): {step}")


def run_smoke_pipeline(out_dir: Path, seed: int = 0, mlm_steps: int = 50,
                       contrastive_steps: int = 200) -> dict[str, Path]:
    """Tokenizer training, packing, MLM, contrastive training, and eval,
    all through the CLI, on the bundled mini corpus. Returns artifact
    paths. Fully seeded: two runs with the same seed produce byte-identical
    checkpoints and reports."""
    from .cli import dispatch  # local import to avoid a module cycle

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    docs = [CorpusDocument(id=d["id"], text=d["text"])
            for d in load_mini_corpus()]
    raw = out / "corpus.jsonl"
    write_documents(raw, docs)

    cleaned = out / "cleaned.jsonl"
    _require(dispatch(["data", "clean", "--in", str(raw), "--out", str(cleaned)]),
             "data clean")

    vocab_path = out / "vocab.txt"
    _require(dispatch(["tokenizer", "train", "--corpus", str(cleaned),
                       "--size", "360", "--min-freq", "2",
                       "--out", str(vocab_path)]), "tokenizer train")

    chunks = out / "chunks.jsonl"
    _require(dispatch(["data", "pack", "--in", str(cleaned),
                       "--vocab", str(vocab_path), "--out", str(chunks),
                       "--chunk-len", "48", "--min-tail", "8"]), "data pack")

    vocab = Vocabulary.load(vocab_path)
    config = ModelConfig(vocab_size=len(vocab), hidden=32, layers=1, heads=2,
                         ffn_dim=64, num_projections=2, max_train_len=64,
                         max_infer_len=256)
    init = out / "ckpt_init"
    save_model(init, build_model(config, seed=seed), vocab)

    mlm_cfg = out / "mlm.json"
    atomic_write_text(mlm_cfg, json.dumps({
        "stage": "mlm", "total_steps": mlm_steps, "peak_lr": 2e-4,
        "beta1": 0.9, "beta2": 0.98, "global_batch": 2, "grad_accum": 2,
        "warmup_fraction": 0.10, "max_len": 48, "mask_rate": 0.30,
        "seed": seed,
    }))
    ckpt_mlm = out / "ckpt_mlm"
    _require(dispatch(["train", "mlm", "--config", str(mlm_cfg),
                       "--data", str(chunks), "--init", str(init),
                       "--out", str(ckpt_mlm)]), "train mlm")

    # Query/positive pairs: two halves of the same abstract; the held-out
    # tail of the corpus becomes the retrieval dataset.
    def halves(text: str) -> tuple[str, str] | None:
        words = text.split()
        if len(words) < 12:
            return None
        return " ".join(words[:6]), " ".join(words[6:12])

    pairs = []
    for doc in docs[:120]:
        cut = halves(doc.text)
        if cut is not None:
            pairs.append(SentencePair(query=cut[0], positive=cut[1],
                                      source_id="smoke"))
    pairs_path = out / "pairs.jsonl"
    write_pairs(pairs_path, pairs)

    queries: dict[str, str] = {}
    corpus: dict[str, str] = {}
    qrels: dict[str, dict[str, int]] = {}
    for doc in docs[120:152]:
        cut = halves(doc.text)
        if cut is None:
            continue
        qid, did = f"q-{doc.id}", f"d-{doc.id}"
        queries[qid] = cut[0]
        corpus[did] = cut[1]
        qrels[qid] = {did: 1}
    dataset_dir = out / "dataset"
    save_dataset(dataset_dir, RetrievalDataset(
        name="smoke-heldout", queries=queries, corpus=corpus, qrels=qrels))

    con_cfg = out / "contrastive.json"
    atomic_write_text(con_cfg, json.dumps({
        "stage": "contrastive", "total_steps": contrastive_steps,
        "peak_lr": 5e-5, "beta1": 0.95, "beta2": 0.98, "global_batch": 4,
        "grad_accum": 1, "warmup_fraction": 0.06, "max_len": 48,
        "temperature": 0.05, "seed": seed,
    }))
    ckpt_con = out / "ckpt_contrastive"
    _require(dispatch(["train", "contrastive", "--config", str(con_cfg),
                       "--data", str(pairs_path), "--init", str(ckpt_mlm),
                       "--out", str(ckpt_con)]), "train contrastive")

    report = out / "report.json"
    _require(dispatch(["eval", "run", "--model", str(ckpt_con),
                       "--dataset", str(dataset_dir), "--k", "10",
                       "--out", str(report)]), "eval run")

    return {
        "vocab": vocab_path,
        "chunks": chunks,
        "checkpoint": ckpt_con,
        "mlm_checkpoint": ckpt_mlm,
        "report": report,
        "train_log": ckpt_con / "train_log.jsonl",
    }
