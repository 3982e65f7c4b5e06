"""Span tracing for the traced benchmark run.

Spans are recorded by wrapping, from outside the package, the module-level
functions each layer is called through: the `medeir.autodiff` ops (and the
backward closure of every tensor they return), the training step pieces,
the encoder forward, `TokenizerModel.encode`, the datapipe and evaluation
entry points the CLI calls, and checkpoint save/load/hash. Nothing under
`src/` changes. Spans stay in memory; `write` dumps them at the end.

A span's self time is its duration minus that of its direct child spans.
A stage span's self time is the part of the stage no layer span covers.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Every op the model and the losses call.
AUTODIFF_OPS = ("matmul", "add", "mul", "gelu", "softmax", "log_softmax",
                "layer_norm", "index_select", "transpose", "reshape", "concat",
                "stack", "narrow", "pick", "mean", "sum_", "masked_fill",
                "cross_entropy", "l2_normalize")
STAGES = ("pack", "mlm", "contrastive", "hardneg", "filter", "mine",
          "eval_cold", "eval_warm")
EVAL_STAGES = ("eval_cold", "eval_warm")
_KEPT_DEPTH = 2  # spans at depth < 2 (stages and their children) are kept whole


class Tracer:
    """Nested timing spans aggregated per (stage, span name)."""

    def __init__(self) -> None:
        self.active = False
        self.stage = ""
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.total: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.step_times: list[float] = []
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._last_step = 0.0
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def pop(self) -> float:
        name, start, child = self._stack.pop()
        end = time.perf_counter()
        dur = end - start
        key = (self.stage, name)
        self.calls[key] += 1
        self.total[key] += dur
        self.self_time[key] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if len(self._stack) < _KEPT_DEPTH:
            self.spans.append((self.stage, name, len(self._stack), start, dur,
                               dur - child))
        return end

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.stage, name)] += value

    def begin_stage(self, stage: str) -> None:
        self.stage = stage
        self.active = True
        self.push("stage")
        self._last_step = time.perf_counter()

    def end_stage(self) -> None:
        self.pop()
        self.active = False

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr by a function that records a span around it."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer.push(name)
            try:
                out = original(*args, **kwargs)
            finally:
                end = tracer.pop()
            if on_return is not None:
                on_return(out, args, end)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer boundary of the medeir package."""
        from medeir import autodiff as ad
        from medeir import cli, evaluation, model, tokenizer, training

        for op in AUTODIFF_OPS:
            self.wrap(ad, op, f"autodiff.op.{op}",
                      on_return=self._backward_wrapper(f"autodiff.op.{op}.bwd"))

        original_backward = training.backward
        tracer = self

        @functools.wraps(original_backward)
        def traced_backward(loss):
            if not tracer.active:
                return original_backward(loss)
            tracer.push("trace.tape_walk")
            tracer.count("tape_nodes", len(ad.ComputationTape.build(loss).nodes))
            tracer.pop()
            tracer.push("autodiff.backward")
            try:
                return original_backward(loss)
            finally:
                tracer.pop()

        training.backward = traced_backward
        self._patches.append((training, "backward", original_backward))

        self.wrap(training, "adamw_step", "training.adamw", on_return=self._step_done)
        self.wrap(training, "mlm_loss", "training.mlm_loss")
        self.wrap(training, "embed_sequence", "training.embed_sequence")
        self.wrap(model, "encoder_forward", "model.encoder_forward",
                  on_return=lambda out, args, end: self.count(
                      "encoder_tokens", out.shape[0]))
        for owner in (model, evaluation, cli):
            self.wrap(owner, "embed_text", "model.embed_text",
                      on_return=lambda out, args, end: self.count("embed_calls"))
        self.wrap(tokenizer.TokenizerModel, "encode", "tokenizer.encode",
                  on_return=lambda out, args, end: self.count(
                      "encode_tokens", len(out.ids)))
        self.wrap(cli, "sequence_from_ids", "tokenizer.sequence_from_ids")

        self.wrap(cli, "pack_chunks", "datapipe.pack")
        self.wrap(cli, "filter_pairs_by_similarity", "datapipe.filter")
        self.wrap(cli, "mine_hard_negatives", "datapipe.mine",
                  on_return=self._mined)
        for io in ("read_documents", "read_pairs", "read_hard_negatives",
                   "write_documents", "write_pairs", "write_hard_negatives"):
            self.wrap(cli, io, "datapipe.jsonl_io")

        self.wrap(cli, "load_dataset", "evaluation.load_dataset")
        self.wrap(cli, "compare_models", "evaluation.compare_models")
        self.wrap(cli, "save_report", "evaluation.save_report")
        self.wrap(cli, "render_table", "evaluation.render_table")
        self.wrap(evaluation, "retrieval_run", "evaluation.retrieval_run")
        self._wrap_embed_corpus(evaluation)

        self.wrap(cli, "load_model", "checkpoint.load")
        self.wrap(training, "save_model", "checkpoint.save", on_return=self._saved)
        self.wrap(cli, "checkpoint_hash", "checkpoint.hash")
        self.wrap(model, "file_hash", "checkpoint.hash")

    def _backward_wrapper(self, name: str):
        tracer = self

        def on_return(out, args, end):
            fn = getattr(out, "_backward_fn", None)
            if fn is None or getattr(fn, "_traced", False):
                return  # a composite op: its parts already carry the span

            def traced_bw(node):
                tracer.push(name)
                try:
                    fn(node)
                finally:
                    tracer.pop()

            traced_bw._traced = True
            out._backward_fn = traced_bw

        return on_return

    def _step_done(self, out, args, end) -> None:
        self.count("steps")
        self.step_times.append(end - self._last_step)
        self._last_step = end

    def _mined(self, records, args, end) -> None:
        self.count("mine_records", len(records))
        self.count("mine_flagged", sum(1 for r in records if r.flagged))

    def _saved(self, out, args, end) -> None:
        directory = Path(args[0])
        self.count("checkpoint_bytes",
                   sum(p.stat().st_size for p in directory.iterdir() if p.is_file()))

    def _wrap_embed_corpus(self, evaluation) -> None:
        original = evaluation._embed_corpus
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            before = tracer.counts[(tracer.stage, "embed_calls")]
            tracer.push("evaluation.embed_corpus")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.pop()
                hit = tracer.counts[(tracer.stage, "embed_calls")] == before
                tracer.count("cache_hits" if hit else "cache_misses")

        evaluation._embed_corpus = traced
        self._patches.append((evaluation, "_embed_corpus", original))

    # -- results ----------------------------------------------------------

    def _sum(self, table, name: str, stages=None) -> float:
        return sum(v for (stage, n), v in table.items()
                   if n == name and (stages is None or stage in stages))

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a per-round mean, as name -> (value, unit)."""
        inc = functools.partial(self._sum, self.total)
        own = functools.partial(self._sum, self.self_time)
        cnt = functools.partial(self._sum, self.counts)
        m: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            m[name] = (value / rounds, unit)

        put("tokenizer.encode_s", inc("tokenizer.encode"), "s")
        put("tokenizer.encode_tokens", cnt("encode_tokens"), "count")
        for stage in ("mlm", "contrastive"):
            steps = cnt("steps", (stage,))
            m[f"autodiff.nodes_per_step.{stage}"] = (
                cnt("tape_nodes", (stage,)) / steps if steps else 0.0, "count")
        put("autodiff.backward_s", inc("autodiff.backward"), "s")
        for op in AUTODIFF_OPS:
            put(f"autodiff.op.{op}.fwd_s", own(f"autodiff.op.{op}"), "s")
            put(f"autodiff.op.{op}.bwd_s", own(f"autodiff.op.{op}.bwd"), "s")
            put(f"autodiff.op.{op}.calls", self._sum(self.calls, f"autodiff.op.{op}"),
                "count")
        put("model.encoder_forward_s", inc("model.encoder_forward"), "s")
        put("model.encoder_forward_tokens", cnt("encoder_tokens"), "count")
        put("model.mlm_head_s", inc("training.mlm_loss", ("mlm",))
            - inc("model.encoder_forward", ("mlm",)), "s")
        put("model.embed_text_s", inc("model.embed_text"), "s")
        put("model.embed_text_calls", cnt("embed_calls"), "count")
        put("training.steps", cnt("steps"), "count")
        put("training.forward_s", inc("training.mlm_loss")
            + inc("training.embed_sequence"), "s")
        put("training.adamw_s", inc("training.adamw"), "s")
        m["training.step_s_p50"] = (statistics.median(self.step_times)
                                    if self.step_times else 0.0, "s")
        put("datapipe.pack_s", inc("datapipe.pack"), "s")
        put("datapipe.filter_s", inc("datapipe.filter"), "s")
        put("datapipe.filter_embed_s", inc("model.embed_text", ("filter",)), "s")
        put("datapipe.mine_s", inc("datapipe.mine"), "s")
        put("datapipe.mine_embed_s", inc("model.embed_text", ("mine",)), "s")
        put("datapipe.mine_flagged", cnt("mine_flagged"), "count")
        put("datapipe.mine_records", cnt("mine_records"), "count")
        retrieval = inc("evaluation.retrieval_run")
        embed = inc("model.embed_text", EVAL_STAGES)
        put("evaluation.retrieval_s", retrieval, "s")
        put("evaluation.embed_s", embed, "s")
        put("evaluation.rank_s", retrieval - embed, "s")
        put("evaluation.cache_hits", cnt("cache_hits"), "count")
        put("evaluation.cache_misses", cnt("cache_misses"), "count")
        put("checkpoint.save_s", inc("checkpoint.save"), "s")
        put("checkpoint.load_s", inc("checkpoint.load"), "s")
        put("checkpoint.hash_s", inc("checkpoint.hash"), "s")
        put("checkpoint.bytes", cnt("checkpoint_bytes"), "bytes")
        for stage in STAGES:
            put(f"stage.{stage}.wall_s", self.total[(stage, "stage")], "s")
            put(f"stage.{stage}.uncovered_s", self.self_time[(stage, "stage")], "s")
        return m

    def write(self, path: Path, header: dict) -> None:
        layers: dict[str, dict] = defaultdict(dict)
        for (stage, name), calls in sorted(self.calls.items()):
            layers[stage][name] = {"calls": calls,
                                   "total_s": self.total[(stage, name)],
                                   "self_s": self.self_time[(stage, name)]}
        blob = dict(header)
        blob["layers"] = layers
        blob["counts"] = {f"{stage}/{name}": v
                          for (stage, name), v in sorted(self.counts.items())}
        blob["spans"] = [{"stage": s, "name": n, "depth": d, "start": t0,
                          "dur_s": dur, "self_s": own}
                         for s, n, d, t0, dur, own in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(blob, indent=1) + "\n")
