"""Evaluation tests: metrics against hand formulas, ranking behavior,
report shape, and the embedding cache."""

import json
import math

import numpy as np
import pytest

import medeir.evaluation as ev
from medeir.evaluation import (
    EvalReport,
    ModelUnderTest,
    RetrievalDataset,
    compare_models,
    cosine,
    dataset_scores,
    load_dataset,
    load_report,
    ndcg_at_k,
    recall_at_k,
    render_table,
    retrieval_run,
    save_dataset,
    save_report,
)
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


class TestCosine:
    def test_identical_is_one(self):
        v = np.array([0.6, 0.8])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        b = np.array([1.0, 1.0]) / math.sqrt(2)
        assert cosine(np.array([1.0, 0.0]), b) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.array([1.0, 0.0, 0.0]))


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
        loaded = load_report(path)
        assert loaded.rows == report.rows
        assert loaded.metadata == report.metadata

    def test_version_checked(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"version": 99, "rows": []}))
        with pytest.raises(ValueError):
            load_report(path)


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

    def test_missing_cell_renders_dash(self):
        report = EvalReport(rows=[
            {"dataset": "a", "model": "m1", "metric": "ndcg@10", "value": 10.0},
            {"dataset": "b", "model": "m1", "metric": "ndcg@10", "value": 20.0},
            {"dataset": "b", "model": "m2", "metric": "ndcg@10", "value": 30.0},
        ])
        table = render_table(report)
        first_data_line = table.splitlines()[2]
        assert first_data_line.split() == ["a", "ndcg@10", "*10.00", "-"]


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
        assert load_dataset(tmp_path / "ds", name="given").name == "given"

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
