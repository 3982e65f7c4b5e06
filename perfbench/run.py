#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the medeir pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload long-docs --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

One run sets up its workload five times (inputs, vocabulary, initial
checkpoint, warm-up) and reports the median set-up time. It then drives the
real CLI (`medeir.cli.dispatch`) in rounds of: data pack, train mlm, train
contrastive, train hardneg, data filter, data mine, eval run (empty cache),
eval run (warm cache). short-pairs also runs `train hardneg` on `data mine`
records that crash it (see README). Rounds repeat while the next one is
expected to end within --seconds; a rate is the median over every timed
call. The first round's outputs are checked in full, later rounds must
reproduce them byte for byte.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of the traced run, whose spans go
to perfbench/_runs/trace-<workload>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "_runs"
SETUP_REPEATS = 5
ROUND_MARGIN = 1.1  # a round may run this much longer than the slowest so far


class BenchError(Exception):
    """An operation failed that should not have."""


def _load_package():
    """Import medeir from the checkout's own src/ tree."""
    if not (SRC / "medeir" / "__init__.py").is_file():
        raise BenchError(f"no medeir package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import medeir.cli  # noqa: F401  (import cost stays out of the timings)


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _read_jsonl(path: Path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _ndcg(report: dict, k: int) -> float:
    return next(r["value"] for r in report["rows"] if r["metric"] == f"ndcg@{k}")


@dataclass
class Env:
    """The files one set-up leaves behind for the rounds to use."""

    inputs: object
    vocab: Path
    init: Path
    configs: dict[str, Path]
    files: dict[str, Path]
    dataset: Path
    vocab_size: int


@dataclass
class Round:
    seconds: dict[str, list[float]] = field(default_factory=dict)  # per call
    rates: dict[str, list[float]] = field(default_factory=dict)    # per call
    metrics: dict[str, float] = field(default_factory=dict)
    round_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    cache_cold: tuple = ()
    cache_warm: tuple = ()
    attempted: int = 0
    failed: int = 0


class Bench:
    """One workload on one seed: set-up, rounds, checks, metrics."""

    def __init__(self, workload, seed: int, work: Path):
        from medeir import evaluation

        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = None  # a spans.Tracer in the traced run
        self.env: Env | None = None
        self.fault_args: list[str] | None = None
        self.rankings: list[dict] = []
        original = evaluation.retrieval_run

        def captured(*args, **kwargs):
            ranked = original(*args, **kwargs)
            self.rankings.append(ranked)
            return ranked

        evaluation.retrieval_run = captured

    # -- running the CLI ----------------------------------------------------

    def _dispatch(self, argv: list[str], cache: Path | None = None) -> tuple[int, str]:
        from medeir.cli import dispatch

        os.environ.pop("MEDEIR_CACHE", None)
        if cache is not None:
            os.environ["MEDEIR_CACHE"] = str(cache)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = dispatch([str(a) for a in argv])
        finally:
            os.environ.pop("MEDEIR_CACHE", None)
        return rc, err.getvalue()

    def _run(self, argv: list[str], what: str, cache: Path | None = None) -> None:
        rc, err = self._dispatch(argv, cache)
        if rc != 0:
            raise BenchError(f"{what} exited {rc}: {err.strip()}")

    # -- set-up ---------------------------------------------------------------

    def setup(self, root: Path) -> Env:
        """Generate inputs, build the vocabulary and the initial checkpoint,
        and warm up; everything a later round reads."""
        from medeir.fixtures import load_mini_corpus
        from medeir.model import ModelConfig, build_model, save_model
        from medeir.tokenizer import Vocabulary, pretokenize
        from workloads import MODEL_SEED, make_inputs

        w = self.workload
        root.mkdir(parents=True)
        bundled = load_mini_corpus()
        words = sorted({t for d in bundled for t in pretokenize(d["text"])
                        if t.isalpha() and len(t) >= 3})
        inputs = make_inputs(w, self.seed, words)

        vocab_path = root / "vocab.txt"
        if inputs.vocab_files:
            for name, tokens in inputs.vocab_files.items():
                (root / f"{name}.txt").write_text("\n".join(tokens) + "\n")
            self._run(["tokenizer", "merge", "--base", root / "base.txt",
                       "--domain", root / "domain.txt", "--out", vocab_path],
                      "tokenizer merge")
        else:
            _write_jsonl(root / "bundled.jsonl", bundled)
            self._run(["tokenizer", "train", "--corpus", root / "bundled.jsonl",
                       "--size", w.vocab_size, "--min-freq", 2, "--out", vocab_path],
                      "tokenizer train")
        vocab = Vocabulary.load(vocab_path)
        init = root / "ckpt_init"
        config = ModelConfig(vocab_size=len(vocab), **w.model)
        save_model(init, build_model(config, seed=MODEL_SEED), vocab)

        files = {name: root / f"{name}.jsonl" for name in
                 ("docs", "pairs", "records", "filter_pairs", "mine_pairs", "mine_corpus")}
        _write_jsonl(files["docs"], [{"id": i, "text": t} for i, t in inputs.docs])
        _write_jsonl(files["pairs"], [{"query": q, "positive": p, "source_id": "bench"}
                                      for q, p in inputs.pairs])
        _write_jsonl(files["records"], [{"query": q, "positive": p, "negatives": n,
                                         "source_id": "bench"}
                                        for q, p, n in inputs.records])
        for name in ("filter_pairs", "mine_pairs"):
            _write_jsonl(files[name], [{"query": q, "positive": p, "source_id": "bench"}
                                       for q, p in getattr(inputs, name)])
        _write_jsonl(files["mine_corpus"], [{"id": i, "text": t}
                                            for i, t in inputs.mine_corpus])
        dataset = root / "dataset"
        dataset.mkdir()
        _write_jsonl(dataset / "queries.jsonl",
                     [{"id": q, "text": t} for q, t in inputs.queries.items()])
        _write_jsonl(dataset / "corpus.jsonl",
                     [{"id": d, "text": t} for d, t in inputs.corpus.items()])
        _write_jsonl(dataset / "qrels.jsonl",
                     [{"qid": q, "did": d, "rel": r}
                      for q, rels in inputs.qrels.items() for d, r in rels.items()])
        configs = {}
        for stage, blob in (("mlm", w.mlm), ("contrastive", w.contrastive),
                            ("hard_negative", w.hardneg)):
            configs[stage] = root / f"{stage}.json"
            configs[stage].write_text(json.dumps(dict(blob, stage=stage)))

        self._run(["embed", "--model", init, "--text", next(iter(inputs.queries.values()))],
                  "embed (warm-up)")
        return Env(inputs=inputs, vocab=vocab_path, init=init,
                   configs=configs, files=files, dataset=dataset,
                   vocab_size=len(vocab))

    def prepare_fault(self, root: Path) -> None:
        """Records that make `train hardneg` fail: `data mine` output at the
        default band on the smoke pipeline's checkpoint (seed 0, so the
        records do not depend on the workload seed)."""
        from medeir.smoke import run_smoke_pipeline

        with contextlib.redirect_stdout(io.StringIO()):
            paths = run_smoke_pipeline(root, seed=0)
        mined = root / "mined.jsonl"
        self._run(["data", "mine", "--in", root / "pairs.jsonl",
                   "--corpus", root / "cleaned.jsonl", "--model", paths["checkpoint"],
                   "--out", mined], "data mine (fault fixture)")
        config = root / "hardneg.json"
        config.write_text(json.dumps(dict(self.workload.hardneg, stage="hard_negative",
                                          max_len=48)))
        self.fault_args = ["train", "hardneg", "--config", config, "--data", mined,
                           "--init", paths["checkpoint"], "--out", root / "ckpt_fault"]

    # -- one round --------------------------------------------------------------

    def _stage(self, rnd: Round, stage: str, argv: list, cache: Path | None = None) -> None:
        if self.tracer is not None:
            self.tracer.begin_stage(stage)
        start = time.perf_counter()
        try:
            rc, err = self._dispatch(argv, cache)
        finally:
            seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end_stage()
        rnd.attempted += 1
        if rc != 0:
            rnd.failed += 1
            raise BenchError(f"{stage} exited {rc}: {err.strip()}")
        rnd.seconds.setdefault(stage, []).append(seconds)

    def round(self, index: int) -> tuple[Round, Path]:
        """The pipeline once, then further passes over the stages the
        workload repeats, so that short stages are timed at several points
        of the round. A pass reuses the first pass's inputs and outputs."""
        w, env = self.workload, self.env
        rd = self.work / f"round-{index}"
        rd.mkdir()
        rnd = Round()
        chunks = rd / "chunks.jsonl"
        ckpt = {s: rd / f"ckpt_{s}" for s in ("mlm", "contrastive", "hardneg")}
        cache = rd / "cache"
        eval_args = ["eval", "run", "--model", ckpt["hardneg"], "--dataset", env.dataset,
                     "--k", w.k]
        plan = [
            ("pack", ["data", "pack", "--in", env.files["docs"], "--vocab", env.vocab,
                      "--out", chunks, "--chunk-len", w.chunk_len,
                      "--min-tail", w.min_tail], None),
            ("mlm", ["train", "mlm", "--config", env.configs["mlm"], "--data", chunks,
                     "--init", env.init, "--out", ckpt["mlm"]], None),
            ("contrastive", ["train", "contrastive", "--config", env.configs["contrastive"],
                             "--data", env.files["pairs"], "--init", ckpt["mlm"],
                             "--out", ckpt["contrastive"]], None),
            ("hardneg", ["train", "hardneg", "--config", env.configs["hard_negative"],
                         "--data", env.files["records"], "--init", ckpt["contrastive"],
                         "--out", ckpt["hardneg"]], None),
            ("filter", ["data", "filter", "--in", env.files["filter_pairs"],
                        "--model", ckpt["hardneg"], "--out", rd / "kept.jsonl",
                        "--drop-fraction", w.drop_fraction], None),
            ("mine", ["data", "mine", "--in", env.files["mine_pairs"],
                      "--corpus", env.files["mine_corpus"], "--model", ckpt["hardneg"],
                      "--out", rd / "mined.jsonl", "--per-query", w.per_query,
                      "--band-lo", w.band[0], "--band-hi", w.band[1]], None),
            ("eval_cold", eval_args + ["--out", rd / "report_cold.json"], cache),
            ("eval_warm", eval_args + ["--out", rd / "report_warm.json"], cache),
        ]
        self.rankings.clear()
        passes = max(w.repeats.values(), default=1)
        for p in range(passes):
            for stage, argv, stage_cache in plan:
                k = w.repeats.get(stage, 1)
                if p in {j * passes // k for j in range(k)}:  # k calls, evenly spread
                    self._stage(rnd, stage, argv, stage_cache)
                    if stage == "eval_cold":
                        rnd.cache_cold = self._cache_stat(rd)
        rnd.cache_warm = self._cache_stat(rd)

        if self.fault_args is not None:
            rnd.attempted += 1
            rc, _ = self._dispatch(self.fault_args)
            if rc != 0:
                rnd.failed += 1

        log = [r for r in _read_jsonl(ckpt["mlm"] / "train_log.jsonl") if "loss" in r]
        work = {
            "pack_tok_s": ("pack", sum(len(c["ids"]) for c in _read_jsonl(chunks))),
            "mlm_tok_s": ("mlm", log[-1]["tokens_seen"]),
            "contrastive_pairs_s": ("contrastive", w.contrastive["total_steps"]
                                    * w.contrastive["global_batch"]),
            "hardneg_items_s": ("hardneg", w.hardneg["total_steps"]
                                * w.hardneg["global_batch"] * (2 + w.negatives)),
            "filter_pairs_s": ("filter", len(env.inputs.filter_pairs)),
            "mine_queries_s": ("mine", len(env.inputs.mine_pairs)),
            "eval_cold_docs_s": ("eval_cold", len(env.inputs.corpus)),
            "eval_warm_queries_s": ("eval_warm", len(env.inputs.queries)),
        }
        for metric, (stage, units) in work.items():
            rnd.rates[metric] = [units / t for t in rnd.seconds[stage]]
        rnd.metrics["mlm_loss_final"] = log[-1]["loss"]
        rnd.metrics["ndcg_at_10"] = _ndcg(_read_json(rd / "report_cold.json"), w.k)

        for name in ("chunks.jsonl", "kept.jsonl", "mined.jsonl",
                     "report_cold.json", "report_warm.json"):
            rnd.digests[name] = _digest(rd / name)
        for stage, path in ckpt.items():
            rnd.digests[f"{stage}/params.bin"] = _digest(path / "params.bin")
            rnd.digests[f"{stage}/train_log.jsonl"] = _digest(path / "train_log.jsonl")
        rnd.digests["rankings"] = hashlib.sha256(
            json.dumps(self.rankings, sort_keys=True).encode()).hexdigest()
        return rnd, rd

    # -- checks -----------------------------------------------------------------

    def check_round(self, rnd: Round, rd: Path) -> None:
        """Check every output of a round against independent expectations."""
        import numpy as np

        import checks
        from medeir.model import embed_text, load_model
        from medeir.tokenizer import SEP_TOKEN, TokenizerModel

        w, env, inputs = self.workload, self.env, self.env.inputs
        dim = w.model["hidden"]

        def embed(model, tok, texts):
            return np.stack([embed_text(model, tok, t) for t in texts])

        model, vocab = load_model(rd / "ckpt_hardneg")
        tok = TokenizerModel(vocab)
        doc_ids = inputs.doc_ids or [tok.encode(t).ids for _, t in inputs.docs]
        checks.check_pack([c["ids"] for c in _read_jsonl(rd / "chunks.jsonl")], doc_ids,
                          vocab.id_of[SEP_TOKEN], w.chunk_len, w.min_tail)
        checks.check_mlm_log(_read_jsonl(rd / "ckpt_mlm" / "train_log.jsonl"),
                             env.vocab_size, w.mlm["total_steps"])
        checks.check_train_log(_read_jsonl(rd / "ckpt_contrastive" / "train_log.jsonl"),
                               w.contrastive["total_steps"], "contrastive")
        checks.check_train_log(_read_jsonl(rd / "ckpt_hardneg" / "train_log.jsonl"),
                               w.hardneg["total_steps"], "hardneg")

        q = embed(model, tok, [query for query, _ in inputs.filter_pairs])
        pos = embed(model, tok, [positive for _, positive in inputs.filter_pairs])
        checks.check_embeddings(q, dim, "filter queries")
        checks.check_embeddings(pos, dim, "filter positives")
        checks.check_filter(inputs.filter_pairs, _read_jsonl(rd / "kept.jsonl"),
                            np.einsum("ij,ij->i", q.astype(np.float64), pos.astype(np.float64)),
                            w.drop_fraction)

        corpus_texts = [t for _, t in inputs.mine_corpus]
        c = embed(model, tok, corpus_texts)
        q = embed(model, tok, [query for query, _ in inputs.mine_pairs])
        checks.check_embeddings(c, dim, "mine corpus")
        checks.check_embeddings(q, dim, "mine queries")
        checks.check_mine(_read_jsonl(rd / "mined.jsonl"), inputs.mine_pairs, corpus_texts,
                          q, c, w.per_query, w.band)

        cold, *warms = self.rankings
        cache_files = sorted((rd / "cache").glob("*.npz"))
        if len(cache_files) != 1:
            raise checks.CheckError(f"eval: {len(cache_files)} cache files, expected 1")
        with np.load(cache_files[0]) as blob:
            doc_ids_cached = [str(x) for x in blob["ids"]]
            doc_embs = blob["embeddings"]
        checks.check_embeddings(doc_embs, dim, "eval corpus")
        if doc_ids_cached != sorted(inputs.corpus):
            raise checks.CheckError("eval: cached corpus ids differ from the dataset")
        qids = sorted(inputs.queries)
        q = embed(model, tok, [inputs.queries[i] for i in qids])
        checks.check_embeddings(q, dim, "eval queries")
        expected, sims = checks.numpy_ranking(q, doc_ids_cached, doc_embs, w.k)
        checks.check_ranking(cold, qids, doc_ids_cached, expected, sims)
        report_cold = _read_json(rd / "report_cold.json")
        checks.check_report(report_cold, *checks.ndcg_recall([cold[i] for i in qids], qids,
                                                             inputs.qrels, w.k), w.k)
        for warm in warms:
            checks.check_warm(cold, warm, report_cold, _read_json(rd / "report_warm.json"),
                              rnd.cache_cold, rnd.cache_warm)

        self._run(["eval", "run", "--model", rd / "ckpt_mlm", "--dataset", env.dataset,
                   "--k", w.k, "--out", rd / "report_start.json"], "eval run (start)")
        checks.check_quality(_ndcg(report_cold, w.k),
                             _ndcg(_read_json(rd / "report_start.json"), w.k))

    @staticmethod
    def _cache_stat(rd: Path) -> tuple:
        return tuple((p.name, p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_size)
                     for p in sorted((rd / "cache").glob("*.npz")))


def _median_metrics(rounds: list[Round]) -> dict[str, float]:
    """Rates: the median over every timed call of the run. Loss and nDCG:
    the median over rounds (every round reproduces the first)."""
    metrics = {name: statistics.median(rate for r in rounds for rate in r.rates[name])
               for name in rounds[0].rates}
    metrics.update({name: statistics.median(r.metrics[name] for r in rounds)
                    for name in rounds[0].metrics})
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import CheckError
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = None
    work = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work)
        setup_s = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            env = bench.setup(work / f"setup-{i}")
            setup_s.append(time.perf_counter() - start)
        bench.env = env
        if workload.fault:
            bench.prepare_fault(work / "fault")
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            bench.tracer = tracer

        rounds: list[Round] = []
        correct = True
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            try:
                rnd, rd = bench.round(len(rounds))
            except BenchError as err:
                print(f"perfbench: {err}", file=sys.stderr)
                return {"correct": False, "attempted": sum(r.attempted for r in rounds) + 1,
                        "failed": sum(r.failed for r in rounds) + 1, "metrics": {}}
            round_s = time.perf_counter() - round_start
            try:
                if not rounds:
                    bench.check_round(rnd, rd)
                else:
                    changed = [k for k, v in rnd.digests.items()
                               if v != rounds[0].digests[k]]
                    if changed:
                        raise CheckError(f"round {len(rounds)} outputs differ from "
                                         f"round 0: {changed}")
            except CheckError as err:
                print(f"perfbench: check failed: {err}", file=sys.stderr)
                correct = False
            rnd.round_s = round_s
            rounds.append(rnd)
            shutil.rmtree(rd)
            slowest = max(r.round_s for r in rounds)
            if not correct or (time.perf_counter() - started
                               + ROUND_MARGIN * slowest > seconds):
                break

        result = {"correct": correct,
                  "attempted": sum(r.attempted for r in rounds),
                  "failed": sum(r.failed for r in rounds)}
        if trace:
            layer = tracer.layer_metrics(len(rounds))
            tracer.unwrap_all()
            tracer.write(RUNS / f"trace-{name}-seed{seed}.json",
                         {"workload": name, "seed": seed, "rounds": len(rounds)})
            result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            return result
        metrics = _median_metrics(rounds)
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
        result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        print(f"perfbench: {name} seed {seed}: {len(rounds)} rounds", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process; the metrics are keyed by workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="long-docs, short-pairs, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="time budget for the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _load_package()
        from workloads import WORKLOADS

        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        elif args.workload in WORKLOADS:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(WORKLOADS)} or all")
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
