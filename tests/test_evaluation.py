"""Evaluation tests: metrics against hand formulas, ranking behavior,
report shape, and the embedding cache."""

import hashlib
import io
import json
import math
import os
import re
import sys

import numpy as np
import pytest

import medeir.evaluation as ev
from medeir.evaluation import (
    REPORT_VERSION,
    EvalReport,
    ModelUnderTest,
    RetrievalDataset,
    compare_models,
    dataset_scores,
    load_dataset,
    ndcg_at_k,
    recall_at_k,
    render_table,
    retrieval_run,
    save_dataset,
    save_report,
)
from medeir.checkpoint import file_hash
from medeir.model import ModelConfig, build_model, embed_texts
from medeir.tokenizer import SPECIAL_TOKENS, TokenizerModel, Vocabulary


@pytest.fixture(scope="module")
def mut():
    words = list("abcdefgh")
    vocab = Vocabulary(list(SPECIAL_TOKENS) + words)
    tokenizer = TokenizerModel(vocab)
    config = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1, heads=2,
                         ffn_dim=32, num_projections=2, max_train_len=32,
                         max_infer_len=64)
    model = build_model(config, seed=3)
    return ModelUnderTest(name="toy", model=model, tokenizer=tokenizer,
                          checkpoint_hash="f" * 64)


def make_dataset(name="toy-ds", queries=None, corpus=None, qrels=None):
    return RetrievalDataset(
        name=name,
        queries=queries or {"q1": "a b"},
        corpus=corpus or {"d1": "a b", "d2": "c d"},
        qrels=qrels or {"q1": {"d1": 1}},
    )


class TestNdcg:
    def test_single_relevant_at_rank_one(self):
        assert ndcg_at_k(["d1", "d2", "d3"], {"d1": 1}, k=10) == 1.0

    def test_single_relevant_at_rank_three(self):
        value = ndcg_at_k(["x", "y", "d1"], {"d1": 1}, k=10)
        assert value == pytest.approx(1 / math.log2(4), abs=1e-12)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_no_relevant_retrieved(self):
        assert ndcg_at_k(["x", "y"], {"d1": 2}, k=10) == 0.0

    def test_no_relevant_exists(self):
        assert ndcg_at_k(["x", "y"], {}, k=10) == 0.0
        assert ndcg_at_k(["x", "y"], {"x": 0}, k=10) == 0.0

    def test_graded_hand_formula(self):
        # ranked: rel 1 at rank 1, rel 3 at rank 2; ideal: 3 then 1.
        qrels = {"a": 1, "b": 3}
        dcg = (2**1 - 1) / math.log2(2) + (2**3 - 1) / math.log2(3)
        idcg = (2**3 - 1) / math.log2(2) + (2**1 - 1) / math.log2(3)
        assert ndcg_at_k(["a", "b"], qrels, k=10) == pytest.approx(dcg / idcg, abs=1e-12)

    def test_ideal_ordering_scores_one(self):
        qrels = {"a": 3, "b": 2, "c": 1}
        assert ndcg_at_k(["a", "b", "c"], qrels, k=10) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_below_k_is_invisible(self):
        qrels = {"a": 2, "b": 1}
        first = ndcg_at_k(["a", "x", "b", "y", "z"], qrels, k=3)
        second = ndcg_at_k(["a", "x", "b", "z", "y"], qrels, k=3)
        assert first == second

    def test_k_validated(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a": 1}, k=0)


class TestRecall:
    def test_all_relevant_found(self):
        assert recall_at_k(["a", "b"], {"a": 1, "b": 2}, k=2) == 1.0

    def test_none_found(self):
        assert recall_at_k(["x", "y"], {"a": 1}, k=2) == 0.0

    def test_half_found(self):
        assert recall_at_k(["a", "x"], {"a": 1, "b": 1}, k=2) == 0.5

    def test_no_relevant_is_undefined(self):
        assert recall_at_k(["a"], {}, k=1) is None
        assert recall_at_k(["a"], {"a": 0}, k=1) is None

    def test_permutation_below_k_is_invisible(self):
        qrels = {"a": 1}
        assert recall_at_k(["a", "x", "y"], qrels, k=1) == recall_at_k(
            ["a", "y", "x"], qrels, k=1
        )


class TestRetrievalRun:
    def test_singleton_corpus(self, mut):
        ds = make_dataset(corpus={"only": "c d"}, qrels={"q1": {"only": 1}})
        assert retrieval_run(mut, ds, k=5) == {"q1": ["only"]}

    def test_query_identical_to_doc_ranks_it_first(self, mut):
        ds = make_dataset(
            queries={"q1": "a b c"},
            corpus={"d1": "e f g", "d2": "a b c", "d3": "h a"},
            qrels={"q1": {"d2": 1}},
        )
        assert retrieval_run(mut, ds, k=3)["q1"][0] == "d2"

    def test_ties_break_by_doc_id_ascending(self, mut):
        ds = make_dataset(
            queries={"q1": "a"},
            corpus={"zz": "b b", "aa": "b b", "mm": "b b"},
            qrels={"q1": {"aa": 1}},
        )
        assert retrieval_run(mut, ds, k=3)["q1"] == ["aa", "mm", "zz"]

    def test_repeat_runs_identical(self, mut):
        ds = make_dataset(
            queries={"q1": "a b", "q2": "g h"},
            corpus={f"d{i}": f"{x} {y}" for i, (x, y) in
                    enumerate([("a", "c"), ("e", "f"), ("g", "a"), ("b", "h")])},
            qrels={"q1": {"d0": 1}},
        )
        assert retrieval_run(mut, ds, k=4) == retrieval_run(mut, ds, k=4)

    def test_truncates_to_k(self, mut):
        ds = make_dataset(
            queries={"q1": "a"},
            corpus={f"d{i}": w for i, w in enumerate("abcdefg")},
            qrels={"q1": {"d0": 1}},
        )
        assert len(retrieval_run(mut, ds, k=3)["q1"]) == 3

    def test_empty_corpus_rejected(self, mut):
        with pytest.raises(ValueError):
            ds = RetrievalDataset(name="x", queries={"q": "a"}, corpus={},
                                  qrels={})
            retrieval_run(mut, ds, k=2)


class TestDatasetChecks:
    """RetrievalDataset names the first offending qrels entry, in qrels
    order and each query's docs in order, as one loop over them would."""

    @pytest.mark.parametrize("qrels, message", [
        ({"q1": {"d1": 1}, "qA": {"d1": 1}, "qB": {"dB": -1}},
         "qrels references unknown query 'qA'"),
        ({"q1": {"d1": 1, "dA": -1, "dB": 1}}, "qrels references unknown doc 'dA'"),
        ({"q1": {"d1": 1, "d2": -1}, "q2": {"d1": -2}},
         "negative relevance grade for 'd2'"),
        ({"q2": {"d2": -1}, "qA": {"dA": 1}}, "negative relevance grade for 'd2'"),
        ({"q1": {"dA": 1}, "qA": {"d1": -1}}, "qrels references unknown doc 'dA'"),
        ({"q2": {"d1": 0, "dA": 1}, "q1": {"d1": -1}}, "qrels references unknown doc 'dA'"),
    ], ids=["query", "doc", "grade", "grade-before-query", "doc-before-query",
            "doc-before-grade"])
    def test_names_the_first_offender(self, qrels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_dataset(queries={"q1": "a", "q2": "b"}, qrels=qrels)

    def test_accepts_zero_grades_and_a_query_without_judgements(self):
        ds = make_dataset(queries={"q1": "a", "q2": "b"},
                          qrels={"q1": {"d1": 0, "d2": 3}, "q2": {}})
        assert ds.qrels["q2"] == {}


class TestDatasetScores:
    def test_matches_per_query_oracle(self, mut):
        ds = make_dataset(
            queries={"q1": "a b", "q2": "c d", "q3": "e f"},
            corpus={"d1": "a b", "d2": "c d", "d3": "e f", "d4": "g h"},
            qrels={"q1": {"d1": 2}, "q2": {"d2": 1, "d3": 1}, "q3": {"d3": 1}},
        )
        k = 3
        run = retrieval_run(mut, ds, k)
        expect_ndcg = np.mean([ndcg_at_k(run[q], ds.qrels[q], k)
                               for q in ("q1", "q2", "q3")])
        expect_recall = np.mean([recall_at_k(run[q], ds.qrels[q], k)
                                 for q in ("q1", "q2", "q3")])
        scores = dataset_scores(mut, ds, k)
        assert scores["ndcg"] == pytest.approx(expect_ndcg, abs=1e-12)
        assert scores["recall"] == pytest.approx(expect_recall, abs=1e-12)
        assert scores["skipped_queries"] == 0

    def test_queries_without_relevant_docs_are_skipped_and_counted(self, mut):
        ds = make_dataset(
            queries={"q1": "a b", "q2": "c d"},
            corpus={"d1": "a b", "d2": "c d"},
            qrels={"q1": {"d1": 1}, "q2": {"d2": 0}},
        )
        scores = dataset_scores(mut, ds, k=2)
        assert scores["skipped_queries"] == 1
        assert scores["ndcg"] == pytest.approx(1.0)


class TestCompareModels:
    def test_perfect_retrieval_scores_hundred(self, mut):
        ds = make_dataset(
            queries={"q1": "a b", "q2": "g h"},
            corpus={"d1": "a b", "d2": "g h", "d3": "c d"},
            qrels={"q1": {"d1": 1}, "q2": {"d2": 1}},
        )
        report = compare_models([mut], [ds], k=2)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row["value"] == pytest.approx(100.0)
        assert report.metadata["k"] == 2
        assert report.metadata["checkpoint_hashes"]["toy"] == "f" * 64
        assert "toy" in report.metadata["tokenizer_hashes"]

    def test_rows_sorted_by_dataset_then_model(self, mut):
        other = ModelUnderTest(name="alt", model=mut.model,
                               tokenizer=mut.tokenizer)
        ds1 = make_dataset(name="zeta")
        ds2 = make_dataset(name="alpha")
        report = compare_models([mut, other], [ds1, ds2], k=2)
        keys = [(r["dataset"], r["model"]) for r in report.rows]
        assert keys == sorted(keys)

    def test_requires_models_and_datasets(self, mut):
        with pytest.raises(ValueError):
            compare_models([], [make_dataset()], k=2)
        with pytest.raises(ValueError):
            compare_models([mut], [], k=2)

    def test_two_inputs_of_one_name_are_rejected(self, mut):
        twin = ModelUnderTest(name=mut.name, model=mut.model, tokenizer=mut.tokenizer)
        with pytest.raises(ValueError, match="^two models are named 'toy'$"):
            compare_models([mut, twin], [make_dataset()], k=2)
        with pytest.raises(ValueError, match="^two datasets are named 'toy-ds'$"):
            compare_models([mut], [make_dataset(name="other"), make_dataset(),
                                   make_dataset()], k=2)


class TestEvalReport:
    def test_values_outside_percent_range_rejected(self):
        with pytest.raises(ValueError):
            EvalReport(rows=[{"dataset": "d", "model": "m",
                              "metric": "ndcg@10", "value": 100.5}])

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            EvalReport(rows=[{"dataset": "d", "model": "m", "value": 10.0}])

    def test_round_trip(self, tmp_path):
        report = EvalReport(
            rows=[{"dataset": "d", "model": "m", "metric": "ndcg@10",
                   "value": 55.24}],
            metadata={"k": 10},
        )
        path = tmp_path / "report.json"
        save_report(path, report)
        assert json.loads(path.read_text()) == {"version": REPORT_VERSION,
                                                "rows": report.rows,
                                                "metadata": report.metadata}


class TestRenderTable:
    def canned(self):
        return EvalReport(rows=[
            {"dataset": "arguana", "model": "jina-v2", "metric": "ndcg@10",
             "value": 44.18},
            {"dataset": "arguana", "model": "medeir", "metric": "ndcg@10",
             "value": 55.24},
        ])

    def test_canned_comparison_marks_the_best(self):
        table = render_table(self.canned())
        assert "44.18" in table
        assert "*55.24" in table
        assert "*44.18" not in table

    def test_header_and_alignment(self):
        table = render_table(self.canned())
        lines = table.splitlines()
        assert lines[0].split() == ["dataset", "metric", "jina-v2", "medeir"]
        assert set(lines[1]) <= {"-", " "}
        assert len({len(line) for line in lines if line} | {len(lines[0])}) <= 2


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        ds = make_dataset(
            queries={"q1": "a b", "q2": "c"},
            corpus={"d1": "a b", "d2": "c d"},
            qrels={"q1": {"d1": 1, "d2": 0}, "q2": {"d2": 2}},
        )
        save_dataset(tmp_path / "ds", ds)
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.queries == ds.queries
        assert loaded.corpus == ds.corpus
        assert loaded.qrels == ds.qrels
        assert loaded.name == "toy-ds"

    def test_name_falls_back_to_directory(self, tmp_path):
        save_dataset(tmp_path / "ds", make_dataset())
        (tmp_path / "ds" / "dataset.json").unlink()
        assert load_dataset(tmp_path / "ds").name == "ds"

    def test_text_must_be_a_string(self, tmp_path):
        save_dataset(tmp_path / "ds", make_dataset())
        path = tmp_path / "ds" / "queries.jsonl"
        path.write_text(json.dumps({"id": "q1", "text": 7}) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_dataset(tmp_path / "ds")

    def test_duplicate_id_names_file_and_line(self, tmp_path):
        save_dataset(tmp_path / "ds", make_dataset())
        path = tmp_path / "ds" / "corpus.jsonl"
        path.write_text(path.read_text() + json.dumps({"id": "d1", "text": "x"}) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: duplicate id 'd1'")):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("row, message", [
        ({"qid": "qX", "did": "d1", "rel": 1}, "qrels references unknown query 'qX'"),
        ({"qid": "q1", "did": "dX", "rel": 1}, "qrels references unknown doc 'dX'"),
    ], ids=["query", "doc"])
    def test_unknown_qrels_id_names_file_and_line(self, tmp_path, row, message):
        save_dataset(tmp_path / "ds", make_dataset())
        path = tmp_path / "ds" / "qrels.jsonl"
        path.write_text(path.read_text() + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("content, message", [
        ("{}", "'name' must be a string, got None"),
        ('{"name": 7}', "'name' must be a string, got 7"),
        ('{"name": null}', "'name' must be a string, got None"),
        ("[1]", "expected a JSON object, got list"),
        ('"ds"', "expected a JSON object, got str"),
        ('{"name": ', "invalid JSON"),
    ], ids=["no-name", "number", "null", "list", "string", "truncated"])
    def test_dataset_json_must_be_an_object_with_a_string_name(self, tmp_path,
                                                               content, message):
        save_dataset(tmp_path / "ds", make_dataset())
        info = tmp_path / "ds" / "dataset.json"
        info.write_text(content)
        with pytest.raises(ValueError, match=re.escape(f"{info}: {message}")):
            load_dataset(tmp_path / "ds")

    def test_qrels_must_reference_corpus(self):
        with pytest.raises(ValueError):
            make_dataset(qrels={"q1": {"ghost": 1}})

    def test_negative_grade_rejected(self):
        with pytest.raises(ValueError):
            make_dataset(qrels={"q1": {"d1": -1}})

    def test_qrels_must_reference_queries(self):
        with pytest.raises(ValueError):
            make_dataset(qrels={"ghost": {"d1": 1}})


class TestEmbeddingCache:
    def test_cache_file_reused(self, mut, tmp_path, monkeypatch):
        ds = make_dataset(
            queries={"q1": "a b"},
            corpus={"d1": "a b", "d2": "c d", "d3": "e f"},
            qrels={"q1": {"d1": 1}},
        )
        calls = {"n": 0}
        real = embed_texts

        def counting(model, tokenizer, texts):
            calls["n"] += len(texts)
            return real(model, tokenizer, texts)

        monkeypatch.setattr(ev, "embed_texts", counting)
        cache = tmp_path / "cache"
        first = retrieval_run(mut, ds, k=3, cache_dir=cache)
        after_first = calls["n"]
        assert after_first == 4  # three docs plus one query
        second = retrieval_run(mut, ds, k=3, cache_dir=cache)
        assert calls["n"] == after_first + 1  # only the query re-embedded
        assert first == second
        assert len(list(cache.glob("*.npz"))) == 1

    @pytest.mark.parametrize("corrupt", [
        lambda good: b"garbage", lambda good: good[:100], lambda good: b"",
        lambda good: npz_bytes(ids=np.array(["d1", "d2"]), embeddings=np.zeros((2, 16))),
        lambda good: npz_bytes(ids=np.array(["d1", "d2", "d3"]),
                               embeddings=np.zeros((3, 8))),
        lambda good: npz_bytes(ids=np.array(["d1", "d2", "d3"])),
        lambda good: npz_bytes(ids=np.array([None] * 3, dtype=object),
                               embeddings=np.zeros((3, 16))),
    ], ids=["garbage", "truncated", "empty", "other-ids", "other-width", "no-embeddings",
            "pickled-ids"])
    def test_unreadable_or_unfitting_entry_is_a_miss_and_is_rewritten(self, mut, tmp_path,
                                                                      corrupt):
        ds = make_dataset(corpus={"d1": "a b", "d2": "c d", "d3": "e f"},
                          qrels={"q1": {"d1": 1}})
        cache = tmp_path / "cache"
        first = retrieval_run(mut, ds, k=3, cache_dir=cache)
        (entry,) = cache.glob("*.npz")
        good = entry.read_bytes()
        entry.write_bytes(corrupt(good))
        assert retrieval_run(mut, ds, k=3, cache_dir=cache) == first
        with np.load(entry) as blob:
            assert list(blob["ids"]) == ["d1", "d2", "d3"]
            assert blob["embeddings"].shape == (3, mut.model.config.hidden)

    def test_no_hash_means_no_cache(self, mut, tmp_path):
        anon = ModelUnderTest(name="anon", model=mut.model,
                              tokenizer=mut.tokenizer)
        ds = make_dataset()
        cache = tmp_path / "cache"
        retrieval_run(anon, ds, k=2, cache_dir=cache)
        assert not cache.exists()

    def test_env_var_names_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEDEIR_CACHE", str(tmp_path / "c"))
        assert ev.default_cache_dir() == tmp_path / "c"
        monkeypatch.delenv("MEDEIR_CACHE")
        assert ev.default_cache_dir() is None


def npz_bytes(**arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def dataset_tables(ds):
    """Every table of a dataset, with its dict order."""
    return (list(ds.queries.items()), list(ds.corpus.items()),
            [(qid, list(rels.items())) for qid, rels in ds.qrels.items()])


def cache_stat(cache):
    return [(p.name, p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_size)
            for p in sorted(cache.iterdir())]


@pytest.fixture(scope="session")
def _open_log():
    """Where an audit hook records the paths this process opens (builtin
    open, io.FileIO, os.open), while log["paths"] is a list."""
    log = {"paths": None}

    def record(event, args):
        if (log["paths"] is not None and event == "open"
                and isinstance(args[0], (str, bytes, os.PathLike))):
            log["paths"].append(os.fsdecode(args[0]))

    sys.addaudithook(record)  # a hook cannot be removed; it idles between tests
    return log


@pytest.fixture
def opened(_open_log):
    """The paths opened while the test runs."""
    _open_log["paths"] = []
    yield _open_log["paths"]
    _open_log["paths"] = None


class TestDatasetCache:
    @pytest.fixture
    def ds_dir(self, tmp_path):
        directory = tmp_path / "ds"
        save_dataset(directory, make_dataset(
            queries={"q2": "c", "q1": "a b"},
            corpus={"d2": "c d", "d1": "a b", "d3": "e"},
            qrels={"q2": {"d3": 0, "d2": 2}, "q1": {"d1": 1}},
        ))
        return directory

    def test_second_load_reads_no_line_and_writes_nothing(self, ds_dir, tmp_path,
                                                          dataset_reads):
        cache = tmp_path / "cache"
        first = load_dataset(ds_dir, cache)
        assert len(dataset_reads) == 3
        entries = list(cache.glob("dataset-*.json"))
        assert len(entries) == 1 and re.fullmatch(r"dataset-[0-9a-f]{64}\.json",
                                                  entries[0].name)
        before = cache_stat(cache)
        second = load_dataset(ds_dir, cache)
        assert len(dataset_reads) == 3
        assert cache_stat(cache) == before
        assert second == first
        assert dataset_tables(second) == dataset_tables(first)
        assert dataset_tables(first) == dataset_tables(load_dataset(ds_dir))
        assert second.name == "toy-ds"

    def test_name_is_read_on_every_load(self, ds_dir, tmp_path):
        cache = tmp_path / "cache"
        load_dataset(ds_dir, cache)
        (ds_dir / "dataset.json").write_text('{"name": "renamed"}')
        assert load_dataset(ds_dir, cache).name == "renamed"
        (ds_dir / "dataset.json").unlink()
        assert load_dataset(ds_dir, cache).name == "ds"
        assert len(list(cache.iterdir())) == 1

    def test_key_is_the_hash_of_the_three_file_hashes(self, ds_dir, tmp_path):
        cache = tmp_path / "cache"
        load_dataset(ds_dir, cache)
        hashes = "".join(file_hash(ds_dir / f"{part}.jsonl")
                         for part in ("queries", "corpus", "qrels"))
        key = hashlib.sha256(hashes.encode()).hexdigest()
        assert [p.name for p in cache.iterdir()] == [f"dataset-{key}.json"]

    @pytest.mark.parametrize("part, old, new", [
        ("queries", '"a b"', '"a c"'),
        ("corpus", '"e"', '"f"'),
        ("qrels", '"rel": 1', '"rel": 3'),
    ])
    def test_one_changed_byte_is_a_miss(self, ds_dir, tmp_path, dataset_reads,
                                        part, old, new):
        cache = tmp_path / "cache"
        load_dataset(ds_dir, cache)
        path = ds_dir / f"{part}.jsonl"
        text = path.read_text()
        assert text.count(old) == 1 and len(old) == len(new)
        path.write_text(text.replace(old, new))
        del dataset_reads[:]
        changed = load_dataset(ds_dir, cache)
        assert len(dataset_reads) == 3
        assert len(list(cache.glob("dataset-*.json"))) == 2
        assert dataset_tables(changed) == dataset_tables(load_dataset(ds_dir))

    def test_file_rewritten_after_the_read_is_cached_as_read(
            self, ds_dir, tmp_path, monkeypatch, dataset_reads):
        cache = tmp_path / "cache"
        paths = [ds_dir / f"{part}.jsonl" for part in ("queries", "corpus", "qrels")]
        read = [path.read_bytes() for path in paths]
        real = ev._read_dataset_entry

        def look_up_then_rewrite(entry):
            paths[2].write_text(read[2].decode().replace('"rel": 1', '"rel": 2'))
            return real(entry)

        monkeypatch.setattr(ev, "_read_dataset_entry", look_up_then_rewrite)
        loaded = load_dataset(ds_dir, cache)
        monkeypatch.setattr(ev, "_read_dataset_entry", real)
        assert loaded.qrels["q1"] == {"d1": 1}
        entry = ev._dataset_entry(cache, [hashlib.sha256(b).hexdigest() for b in read])
        assert [p.name for p in cache.iterdir()] == [entry.name]
        del dataset_reads[:]
        assert load_dataset(ds_dir, cache).qrels["q1"] == {"d1": 2}
        assert len(dataset_reads) == 3
        assert len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize("warm", [False, True], ids=["miss", "hit"])
    def test_one_load_opens_each_file_once(self, ds_dir, tmp_path, opened, warm):
        cache = tmp_path / "cache"
        if warm:
            load_dataset(ds_dir, cache)
        del opened[:]
        load_dataset(ds_dir, cache)
        files = [str(ds_dir / f"{part}.jsonl") for part in ("queries", "corpus", "qrels")]
        assert sorted(p for p in opened if p in files) == sorted(files)

    @pytest.mark.parametrize("corrupt", [
        b"", b"not json", b"\xff\xfe", b"[1]", b'{"queries": {}, "corpus": {}}',
        b'{"queries": {}, "corpus": {}, "qrels": []}',
        b'{"queries": {}, "corpus": {}, "qrels": {}, "extra": {}}',
    ], ids=["empty", "text", "not-utf8", "list", "two-tables", "qrels-list",
            "four-tables"])
    def test_corrupt_entry_is_a_miss_and_is_rewritten(self, ds_dir, tmp_path,
                                                      dataset_reads, corrupt):
        cache = tmp_path / "cache"
        load_dataset(ds_dir, cache)
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        entry.write_bytes(corrupt)
        del dataset_reads[:]
        loaded = load_dataset(ds_dir, cache)
        assert len(dataset_reads) == 3
        assert entry.read_bytes() == good
        assert dataset_tables(loaded) == dataset_tables(load_dataset(ds_dir))

    @pytest.mark.parametrize("table, key, value", [
        ("qrels", "q1", 1), ("qrels", "q1", []), ("corpus", "d1", 5),
        ("queries", "q2", None), ("qrels", "q1", {"d1": True}),
        ("qrels", "q1", {"d1": 1.0}), ("qrels", "q1", {"d1": -1}),
        ("qrels", "q1", {"ghost": 1}), ("qrels", "q9", {"d1": 1}),
    ], ids=["qrels-number", "qrels-list", "number-text", "null-text", "bool-grade",
            "float-grade", "negative-grade", "unknown-doc", "unknown-query"])
    def test_entry_that_a_parse_would_reject_is_a_miss_and_is_rewritten(
            self, ds_dir, tmp_path, dataset_reads, table, key, value):
        cache = tmp_path / "cache"
        load_dataset(ds_dir, cache)
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        blob = json.loads(good)
        blob[table][key] = value
        entry.write_text(json.dumps(blob))
        del dataset_reads[:]
        loaded = load_dataset(ds_dir, cache)
        assert len(dataset_reads) == 3
        assert entry.read_bytes() == good
        assert dataset_tables(loaded) == dataset_tables(load_dataset(ds_dir))

    def test_invalid_dataset_writes_no_entry(self, ds_dir, tmp_path):
        cache = tmp_path / "cache"
        qrels = ds_dir / "qrels.jsonl"
        qrels.write_text(qrels.read_text() + json.dumps(
            {"qid": "q1", "did": "ghost", "rel": 1}) + "\n")
        with pytest.raises(ValueError, match="unknown doc 'ghost'"):
            load_dataset(ds_dir, cache)
        assert not cache.exists()

    def test_texts_and_grades_round_trip_exactly(self, tmp_path, dataset_reads):
        directory = tmp_path / "ds"
        directory.mkdir()
        texts = ["nul\x00byte", "non-bmp \U0001F9EC", "lone \ud800 surrogate",
                 "low \udfff", "\u2028 line separator", 'quote " and \\']
        # both forms a file may hold: raw UTF-8, and \u escapes (a lone
        # surrogate has no other)
        (directory / "queries.jsonl").write_text(
            json.dumps({"id": "q\U0001F9EC", "text": "a"}) + "\n", encoding="utf-8")
        (directory / "corpus.jsonl").write_text("".join(
            json.dumps({"id": f"d{i}", "text": t}, ensure_ascii="\ud800" in t
                       or "\udfff" in t) + "\n" for i, t in enumerate(texts)),
            encoding="utf-8")
        (directory / "qrels.jsonl").write_text(
            json.dumps({"qid": "q\U0001F9EC", "did": "d0", "rel": 2 ** 64 + 1}) + "\n"
            + json.dumps({"qid": "q\U0001F9EC", "did": "d2", "rel": 0}) + "\n")
        cache = tmp_path / "cache"
        parsed = load_dataset(directory, cache)
        del dataset_reads[:]
        hit = load_dataset(directory, cache)
        assert dataset_reads == []
        assert [hit.corpus[f"d{i}"] for i in range(len(texts))] == texts
        assert dataset_tables(hit) == dataset_tables(parsed)
        grade = hit.qrels["q\U0001F9EC"]["d0"]
        assert type(grade) is int and grade == 2 ** 64 + 1
        assert len(list(cache.iterdir())) == 1

    def test_no_cache_dir_writes_nothing(self, ds_dir, tmp_path):
        before = sorted(tmp_path.rglob("*"))
        load_dataset(ds_dir)
        assert sorted(tmp_path.rglob("*")) == before


def reference_top_k(queries, rows, k):
    """The per-query ranking the blocked scorer replaced: a per-row float64
    reduction over all rows, then a full stable argsort."""
    rows = np.asarray(rows, dtype=np.float64)
    out = []
    for q in np.asarray(queries, dtype=np.float64):
        sims = (rows * q).sum(axis=1)
        out.append(np.argsort(-sims, kind="stable")[:k])
    return out


def assert_same_top_k(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.tolist() == e.tolist()


class TestTopK:
    @pytest.mark.parametrize("k", [1, 3, 10, 59, 60, 100])
    def test_random_rows(self, k):
        rng = np.random.default_rng(k)
        rows = rng.standard_normal((60, 12)).astype(np.float32)
        queries = rng.standard_normal((7, 12)).astype(np.float32)
        assert_same_top_k(ev._top_k(queries, rows, k), reference_top_k(queries, rows, k))

    @pytest.mark.parametrize("k", [1, 4, 9, 30])
    def test_duplicate_rows_tie_by_index(self, k):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((6, 8))
        rows = base[rng.integers(0, 6, size=30)]
        queries = rng.standard_normal((5, 8))
        got = ev._top_k(queries, rows, k)
        assert_same_top_k(got, reference_top_k(queries, rows, k))
        for top, q in zip(got, queries):
            scores = rows[top] @ q
            for a, b, sa, sb in zip(top, top[1:], scores, scores[1:]):
                assert sa > sb or (np.array_equal(rows[a], rows[b]) and a < b)

    def test_ties_straddling_the_kth_place(self):
        # ranks 2..6 are five copies of one row; k = 4 cuts through them
        q = np.array([[1.0, 0.0]])
        rows = np.array([[0.2, 1.0], [0.5, 0.0], [0.9, 0.0], [0.5, 0.0], [0.1, 0.0],
                         [0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.3, 0.0]])
        assert ev._top_k(q, rows, 4)[0].tolist() == [2, 1, 3, 5]
        assert ev._top_k(q, rows, 6)[0].tolist() == [2, 1, 3, 5, 6, 7]
        assert_same_top_k(ev._top_k(q, rows, 4), reference_top_k(q, rows, 4))

    @pytest.mark.parametrize("budget", [1, 50, 125])
    def test_small_query_blocks(self, monkeypatch, budget):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((20, 6))
        rows = base[rng.integers(0, 20, size=25)]
        queries = rng.standard_normal((9, 6))
        expected = reference_top_k(queries, rows, 5)
        monkeypatch.setattr(ev, "_SCORE_FLOATS", budget)
        assert_same_top_k(ev._top_k(queries, rows, 5), expected)

    def test_band_and_exclude(self):
        q = np.array([[1.0, 0.0], [1.0, 0.0]])
        rows = np.array([[0.95, 0.0], [0.8, 0.0], [0.7, 0.0], [0.5, 0.0], [0.2, 0.0]])
        got = ev._top_k(q, rows, 3, band=(0.3, 0.9), exclude=[-1, 1])
        assert [t.tolist() for t in got] == [[1, 2, 3], [2, 3]]
        # both band ends are inclusive
        got = ev._top_k(q, rows, 5, band=(0.2, 0.8))
        assert got[0].tolist() == [1, 2, 3, 4]

    def test_retrieval_run_in_one_query_blocks(self, mut, monkeypatch):
        ds = make_dataset(
            queries={"q1": "a b", "q2": "g h", "q3": "c"},
            corpus={f"d{i}": t for i, t in
                    enumerate(["a c", "e f", "g a", "b h", "a c", "c", "e f"])},
            qrels={"q1": {"d0": 1}},
        )
        expected = retrieval_run(mut, ds, k=7)
        monkeypatch.setattr(ev, "_SCORE_FLOATS", 1)
        assert retrieval_run(mut, ds, k=7) == expected
        for ranked in expected.values():
            assert ranked.index("d0") < ranked.index("d4")
            assert ranked.index("d1") < ranked.index("d6")
