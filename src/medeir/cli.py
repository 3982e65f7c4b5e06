"""Single `medeir` command exposing tokenizer, data, training, embedding,
and evaluation workflows.

Exit codes: 0 success, 1 user error (message on stderr), 2 internal
failure. Every output file is written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from .checkpoint import atomic_write_text, checkpoint_hash, read_jsonl, write_jsonl
from .datapipe import (
    Embedder,
    clean_document,
    dedup_corpus,
    filter_pairs_by_similarity,
    mine_hard_negatives,
    pack_chunks,
    read_documents,
    read_hard_negatives,
    read_pairs,
    write_documents,
    write_hard_negatives,
    write_pairs,
)
from .evaluation import (
    ModelUnderTest,
    compare_models,
    default_cache_dir,
    load_dataset,
    render_table,
    save_report,
)
from .model import EncoderModel, embed_text, embed_texts, load_model
from .tokenizer import (
    TokenizerModel,
    Vocabulary,
    merge_vocabularies,
    sequence_from_ids,
    tokenizer_compare,
    train_wordpiece,
)
from .training import PairSource, StageConfig, run_stage

_STAGE_BY_COMMAND = {"mlm": "mlm", "contrastive": "contrastive",
                     "hardneg": "hard_negative"}


class UserError(Exception):
    """Anything the operator can fix: bad flags, bad paths, bad configs."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UserError(f"{self.format_usage().rstrip()}\n{self.prog}: {message}")


# ---------------------------------------------------------------------------
# shared helpers

def _load_checkpoint(path: str) -> tuple[EncoderModel, TokenizerModel]:
    directory = Path(path)
    if not directory.is_dir():
        raise UserError(f"checkpoint directory not found: {directory}")
    model, vocab = load_model(directory)
    return model, TokenizerModel(vocab)


def _embedder(model: EncoderModel, tokenizer: TokenizerModel,
              texts: list[str]) -> Embedder:
    """Embed every distinct text in one batched call; the returned embedder
    looks a text's row up."""
    distinct = list(dict.fromkeys(texts))
    return dict(zip(distinct, embed_texts(model, tokenizer, distinct))).__getitem__


def _limited(items: list, limit: int | None) -> list:
    if limit is None:
        return items
    if limit < 1:
        raise UserError("--limit must be >= 1")
    return items[:limit]


def _model_under_test(path: str) -> ModelUnderTest:
    model, tokenizer = _load_checkpoint(path)
    return ModelUnderTest(name=Path(path).name, model=model,
                          tokenizer=tokenizer,
                          checkpoint_hash=checkpoint_hash(Path(path)))


# ---------------------------------------------------------------------------
# tokenizer commands

def _cmd_tokenizer_train(args) -> None:
    docs = read_documents(Path(args.corpus))
    vocab = train_wordpiece((d.text for d in docs), target_size=args.size,
                            min_frequency=args.min_freq)
    vocab.save(Path(args.out))
    print(f"trained vocabulary of {len(vocab)} tokens -> {args.out}")


def _cmd_tokenizer_merge(args) -> None:
    base = Vocabulary.load(Path(args.base))
    domain = Vocabulary.load(Path(args.domain))
    merged = merge_vocabularies(base, domain)
    merged.save(Path(args.out))
    print(f"merged {len(base)} + {len(domain)} -> {len(merged)} tokens")


def _cmd_tokenizer_compare(args) -> None:
    tok_a = TokenizerModel(Vocabulary.load(Path(args.a)))
    tok_b = TokenizerModel(Vocabulary.load(Path(args.b)))
    texts = [d.text for d in read_documents(Path(args.corpus))]
    report = tokenizer_compare(tok_a, tok_b, texts,
                               corpus_id=Path(args.corpus).name)
    blob = report.to_dict()
    atomic_write_text(Path(args.report),
                      json.dumps(blob, indent=2, sort_keys=True) + "\n")
    print(f"tokens_base={blob['tokens_base']} tokens_merged={blob['tokens_merged']} "
          f"reduction_pct={blob['reduction_pct']:.2f}")


# ---------------------------------------------------------------------------
# data commands

def _cmd_data_clean(args) -> None:
    docs = _limited(read_documents(Path(args.infile)), args.limit)
    cleaned = [dataclasses.replace(d, text=clean_document(d.text)) for d in docs]
    cleaned = [d for d in cleaned if d.text]
    kept = dedup_corpus(cleaned)
    write_documents(Path(args.out), kept)
    print(f"kept {len(kept)} of {len(docs)} documents -> {args.out}")


def _cmd_data_pack(args) -> None:
    docs = _limited(read_documents(Path(args.infile)), args.limit)
    tokenizer = TokenizerModel(Vocabulary.load(Path(args.vocab)))
    chunks = pack_chunks(docs, tokenizer, chunk_len=args.chunk_len,
                         min_tail=args.min_tail)
    write_jsonl(Path(args.out), ({"ids": chunk} for chunk in chunks))
    print(f"packed {len(docs)} documents into {len(chunks)} chunks -> {args.out}")


def _cmd_data_filter(args) -> None:
    pairs = _limited(read_pairs(Path(args.infile)), args.limit)
    model, tokenizer = _load_checkpoint(args.model)
    embedder = _embedder(model, tokenizer,
                         [text for p in pairs for text in (p.query, p.positive)])
    kept = filter_pairs_by_similarity(pairs, embedder, threshold=args.threshold,
                                      drop_fraction=args.drop_fraction)
    write_pairs(Path(args.out), kept)
    print(f"kept {len(kept)} of {len(pairs)} pairs -> {args.out}")


def _cmd_data_mine(args) -> None:
    pairs = _limited(read_pairs(Path(args.infile)), args.limit)
    corpus = [d.text for d in read_documents(Path(args.corpus))]
    model, tokenizer = _load_checkpoint(args.model)
    embedder = _embedder(model, tokenizer, corpus + [p.query for p in pairs])
    records = mine_hard_negatives(pairs, corpus, embedder, per_query=args.per_query,
                                  band=(args.band_lo, args.band_hi))
    write_hard_negatives(Path(args.out), records)
    flagged = sum(1 for r in records if r.flagged)
    print(f"mined {len(records)} records ({flagged} flagged) -> {args.out}")


# ---------------------------------------------------------------------------
# training commands

def _load_stage_data(stage: str, path: Path, vocab: Vocabulary):
    if stage == "mlm":
        return [sequence_from_ids(vocab, blob["ids"]) for blob in read_jsonl(path)]
    grouped: dict[str, list] = {}
    if stage == "contrastive":
        for pair in read_pairs(path):
            key = pair.source_id or "default"
            grouped.setdefault(key, []).append((pair.query, pair.positive))
    else:
        for rec in read_hard_negatives(path):
            key = rec.source_id or "default"
            grouped.setdefault(key, []).append(
                (rec.query, rec.positive, list(rec.negatives)))
    return [PairSource(source_id=key, items=items)
            for key, items in grouped.items()]


def _cmd_train(args) -> None:
    stage = _STAGE_BY_COMMAND[args.stage_command]
    with open(args.config, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    blob.setdefault("stage", stage)
    if blob["stage"] != stage:
        raise UserError(f"config declares stage {blob['stage']!r} but the "
                        f"subcommand trains {stage!r}")
    try:
        config = StageConfig.from_dict(blob)
    except TypeError as err:
        raise UserError(f"invalid stage config: {err}") from err
    model, tokenizer = _load_checkpoint(args.init)
    data = _load_stage_data(stage, Path(args.data), tokenizer.vocab)
    out = Path(args.out)
    records = run_stage(config, model, tokenizer, data, out_dir=out,
                        log_path=out / "train_log.jsonl")
    losses = [r["loss"] for r in records if "loss" in r]
    final = f"{losses[-1]:.4f}" if losses else "n/a"
    print(f"{stage}: {len(losses)} optimizer steps, final loss {final} -> {out}")


# ---------------------------------------------------------------------------
# embed and eval commands

def _cmd_embed(args) -> None:
    model, tokenizer = _load_checkpoint(args.model)
    vector = embed_text(model, tokenizer, args.text)
    print(json.dumps({"text": args.text, "dim": int(vector.shape[0]),
                      "vector": [float(x) for x in vector]}))


def _cmd_eval_run(args) -> None:
    mut = _model_under_test(args.model)
    dataset = load_dataset(Path(args.dataset))
    report = compare_models([mut], [dataset], k=args.k,
                            cache_dir=default_cache_dir())
    save_report(Path(args.out), report)
    print(render_table(report), end="")


def _cmd_eval_compare(args) -> None:
    models = [_model_under_test(p) for p in args.models.split(",") if p]
    datasets = [load_dataset(Path(p)) for p in args.datasets.split(",") if p]
    report = compare_models(models, datasets, k=args.k,
                            cache_dir=default_cache_dir())
    if args.out:
        save_report(Path(args.out), report)
    print(render_table(report), end="")


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="medeir",
                     description="Domain-adapted tokenizer, encoder training, "
                                 "and retrieval evaluation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    tok = sub.add_parser("tokenizer", help="train, merge, and compare vocabularies")
    tok_sub = tok.add_subparsers(dest="subcommand", required=True)
    t = tok_sub.add_parser("train", help="learn a WordPiece vocabulary")
    t.add_argument("--corpus", required=True, help="JSONL corpus of documents")
    t.add_argument("--size", type=int, required=True, help="target vocabulary size")
    t.add_argument("--min-freq", type=int, default=2, help="minimum pair frequency")
    t.add_argument("--out", required=True, help="output vocab file")
    t.set_defaults(func=_cmd_tokenizer_train)
    t = tok_sub.add_parser("merge", help="append domain tokens to a base vocabulary")
    t.add_argument("--base", required=True)
    t.add_argument("--domain", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_tokenizer_merge)
    t = tok_sub.add_parser("compare", help="sub-token efficiency of two vocabularies")
    t.add_argument("--a", required=True, help="baseline vocab file")
    t.add_argument("--b", required=True, help="candidate vocab file")
    t.add_argument("--corpus", required=True)
    t.add_argument("--report", required=True, help="output report JSON")
    t.set_defaults(func=_cmd_tokenizer_compare)

    data = sub.add_parser("data", help="corpus cleaning, packing, filtering, mining")
    data_sub = data.add_subparsers(dest="subcommand", required=True)
    d = data_sub.add_parser("clean", help="clean and deduplicate documents")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--limit", type=int, default=None, help="use only the first N records")
    d.set_defaults(func=_cmd_data_clean)
    d = data_sub.add_parser("pack", help="pack documents into fixed-length id chunks")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--vocab", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--chunk-len", type=int, default=512)
    d.add_argument("--min-tail", type=int, default=16)
    d.add_argument("--limit", type=int, default=None)
    d.set_defaults(func=_cmd_data_pack)
    d = data_sub.add_parser("filter", help="filter pairs by embedding similarity")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--model", required=True, help="checkpoint directory")
    d.add_argument("--out", required=True)
    mode = d.add_mutually_exclusive_group(required=True)
    mode.add_argument("--threshold", type=float, default=None)
    mode.add_argument("--drop-fraction", type=float, default=None)
    d.add_argument("--limit", type=int, default=None)
    d.set_defaults(func=_cmd_data_filter)
    d = data_sub.add_parser("mine", help="mine hard negatives for query/positive pairs")
    d.add_argument("--in", dest="infile", required=True, help="pairs JSONL")
    d.add_argument("--corpus", required=True, help="candidate documents JSONL")
    d.add_argument("--model", required=True, help="checkpoint directory")
    d.add_argument("--out", required=True)
    d.add_argument("--per-query", type=int, default=5)
    d.add_argument("--band-lo", type=float, default=0.3)
    d.add_argument("--band-hi", type=float, default=0.9)
    d.add_argument("--limit", type=int, default=None)
    d.set_defaults(func=_cmd_data_mine)

    train = sub.add_parser("train", help="run one training stage")
    train_sub = train.add_subparsers(dest="stage_command", required=True)
    for name, stage in _STAGE_BY_COMMAND.items():
        t = train_sub.add_parser(name, help=f"{stage} stage")
        t.add_argument("--config", required=True, help="stage config JSON")
        t.add_argument("--data", required=True,
                       help="chunks JSONL for mlm; pairs or hard-negative "
                            "JSONL for the contrastive stages")
        t.add_argument("--init", required=True, help="initial checkpoint directory")
        t.add_argument("--out", required=True, help="output checkpoint directory")
        t.set_defaults(func=_cmd_train)

    embed = sub.add_parser("embed", help="embed one text as a unit vector")
    embed.add_argument("--model", required=True, help="checkpoint directory")
    embed.add_argument("--text", required=True)
    embed.set_defaults(func=_cmd_embed)

    ev = sub.add_parser("eval", help="retrieval evaluation")
    ev_sub = ev.add_subparsers(dest="subcommand", required=True)
    e = ev_sub.add_parser("run", help="evaluate one checkpoint on one dataset")
    e.add_argument("--model", required=True, help="checkpoint directory")
    e.add_argument("--dataset", required=True, help="dataset directory")
    e.add_argument("--k", type=int, default=10)
    e.add_argument("--out", required=True, help="output report JSON")
    e.set_defaults(func=_cmd_eval_run)
    e = ev_sub.add_parser("compare", help="compare checkpoints across datasets")
    e.add_argument("--models", required=True, help="comma-separated checkpoints")
    e.add_argument("--datasets", required=True, help="comma-separated dataset dirs")
    e.add_argument("--k", type=int, default=10)
    e.add_argument("--out", default=None, help="optional report JSON")
    e.set_defaults(func=_cmd_eval_compare)

    return parser


def _execute(args) -> int:
    try:
        args.func(args)
        return 0
    except UserError as err:
        print(f"medeir: error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as err:
        print(f"medeir: error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"medeir: internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 2


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except UserError as err:
        print(str(err), file=sys.stderr)
        return 1
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    return _execute(args)


def main(argv: Sequence[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
