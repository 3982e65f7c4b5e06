"""Corpus pipeline tests: cleaning, dedup, packing, filtering, mining."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medeir import evaluation
from medeir.datapipe import (
    CorpusDocument,
    HardNegativeRecord,
    SentencePair,
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
from medeir.tokenizer import SPECIAL_TOKENS, SEP_TOKEN, TokenizerModel, Vocabulary


def word_tokenizer(*words: str) -> TokenizerModel:
    """Vocabulary where each given word is a single whole token."""
    return TokenizerModel(Vocabulary(list(SPECIAL_TOKENS) + list(words)))


def unit(vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    return arr / np.linalg.norm(arr)


def preset_embedder(table: dict[str, np.ndarray]):
    def embed(text: str) -> np.ndarray:
        return table[text]

    return embed


class TestCleanDocument:
    def test_strips_tags_keeps_content(self):
        assert clean_document("<p>hello</p>") == "hello"

    def test_nested_markup(self):
        assert clean_document("<div><b>bold</b> and <i>italic</i></div>") == "bold and italic"

    def test_removes_urls(self):
        assert clean_document("see https://x.y now") == "see now"

    def test_removes_www_urls(self):
        assert clean_document("visit www.example.org today") == "visit today"

    def test_collapses_consecutive_duplicate_paragraphs(self):
        text = "the same line\nthe same line\nanother line"
        assert clean_document(text) == "the same line\nanother line"

    def test_non_consecutive_duplicates_survive(self):
        text = "alpha\nbeta\nalpha"
        assert clean_document(text) == "alpha\nbeta\nalpha"

    def test_whitespace_normalized(self):
        assert clean_document("  spaced\t\tout   words ") == "spaced out words"

    def test_blank_paragraphs_dropped(self):
        assert clean_document("first\n\n\nsecond") == "first\nsecond"

    def test_empty_input(self):
        assert clean_document("") == ""

    def test_idempotent_on_messy_sample(self):
        sample = "<h1>Title</h1>\nsee http://a.b/c?d=e\nrepeat\nrepeat\n  x   y  "
        once = clean_document(sample)
        assert clean_document(once) == once

    @settings(max_examples=80, deadline=None)
    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = clean_document(text)
        assert clean_document(once) == once


class TestDedupCorpus:
    def test_ten_docs_three_duplicates_gives_seven(self):
        docs = [CorpusDocument(id=f"d{i}", text=f"unique text {i}") for i in range(7)]
        docs.insert(2, CorpusDocument(id="dup0", text="unique text 0"))
        docs.insert(5, CorpusDocument(id="dup1", text="unique text 1"))
        docs.append(CorpusDocument(id="dup2", text="unique text 2"))
        assert len(docs) == 10
        kept = dedup_corpus(docs)
        assert len(kept) == 7
        assert [d.id for d in kept] == [f"d{i}" for i in range(7)]

    def test_first_occurrence_wins(self):
        docs = [
            CorpusDocument(id="a", text="same"),
            CorpusDocument(id="b", text="same"),
        ]
        assert [d.id for d in dedup_corpus(docs)] == ["a"]

    def test_duplicate_detection_ignores_whitespace_runs(self):
        docs = [
            CorpusDocument(id="a", text="two  words"),
            CorpusDocument(id="b", text="two words"),
        ]
        assert len(dedup_corpus(docs)) == 1

    def test_empty(self):
        assert dedup_corpus([]) == []


class TestPackChunks:
    def test_single_long_doc_remainder_dropped(self):
        tok = word_tokenizer("a")
        docs = [CorpusDocument(id="d", text=" ".join(["a"] * 1030))]
        chunks = pack_chunks(docs, tok, chunk_len=512, min_tail=16)
        assert [len(c) for c in chunks] == [512, 512]

    def test_remainder_kept_when_long_enough(self):
        tok = word_tokenizer("a")
        docs = [CorpusDocument(id="d", text=" ".join(["a"] * 1040))]
        chunks = pack_chunks(docs, tok, chunk_len=512, min_tail=16)
        assert [len(c) for c in chunks] == [512, 512, 16]

    def test_separator_between_documents(self):
        tok = word_tokenizer("a", "b")
        docs = [
            CorpusDocument(id="1", text="a a a"),
            CorpusDocument(id="2", text="b b"),
        ]
        chunks = pack_chunks(docs, tok, chunk_len=6, min_tail=1)
        a = tok.vocab.id_of["a"]
        b = tok.vocab.id_of["b"]
        sep = tok.vocab.id_of[SEP_TOKEN]
        assert chunks == [[a, a, a, sep, b, b]]

    def test_short_single_doc_yields_nothing(self):
        tok = word_tokenizer("a")
        docs = [CorpusDocument(id="d", text="a a a")]
        assert pack_chunks(docs, tok, chunk_len=512, min_tail=16) == []

    def test_chunks_partition_the_stream(self):
        tok = word_tokenizer("a", "b", "c")
        docs = [
            CorpusDocument(id="1", text="a b c " * 20),
            CorpusDocument(id="2", text="c b a " * 15),
        ]
        chunks = pack_chunks(docs, tok, chunk_len=7, min_tail=3)
        flat = [i for c in chunks for i in c]
        ids1 = tok.encode(docs[0].text).ids
        ids2 = tok.encode(docs[1].text).ids
        stream = ids1 + [tok.vocab.id_of[SEP_TOKEN]] + ids2
        assert flat == stream[: len(flat)]
        assert all(len(c) == 7 for c in chunks[:-1])
        assert len(stream) - len(flat) < 3

    def test_empty_documents_add_no_separator(self):
        tok = word_tokenizer("a")
        docs = [
            CorpusDocument(id="1", text="a a"),
            CorpusDocument(id="2", text=""),
            CorpusDocument(id="3", text="a a"),
        ]
        chunks = pack_chunks(docs, tok, chunk_len=5, min_tail=1)
        a = tok.vocab.id_of["a"]
        sep = tok.vocab.id_of[SEP_TOKEN]
        assert chunks == [[a, a, sep, a, a]]

    def test_chunk_len_below_min_tail_rejected(self):
        tok = word_tokenizer("a")
        with pytest.raises(ValueError):
            pack_chunks([], tok, chunk_len=8, min_tail=16)

    @pytest.mark.parametrize("chunk_len,min_tail", [(8, 0), (0, 0), (8, -3)])
    @pytest.mark.parametrize("n_docs", [0, 1])
    def test_min_tail_below_one_rejected(self, n_docs, chunk_len, min_tail):
        """min_tail 0 would emit an empty chunk; chunk_len 0 would never end."""
        tok = word_tokenizer("a")
        docs = [CorpusDocument(id="d", text="a a a")] * n_docs
        with pytest.raises(ValueError, match="min_tail must be >= 1"):
            pack_chunks(docs, tok, chunk_len=chunk_len, min_tail=min_tail)


def angled_pairs(n: int) -> tuple[list[SentencePair], dict[str, np.ndarray]]:
    """n pairs whose similarities are cos(k degrees), k = 0..n-1 scaled."""
    table = {"query": unit([1.0, 0.0])}
    pairs = []
    for i in range(n):
        angle = math.radians(5 + 8 * i)
        name = f"pos{i}"
        table[name] = unit([math.cos(angle), math.sin(angle)])
        pairs.append(SentencePair(query="query", positive=name))
    return pairs, table


class TestFilterPairs:
    def test_drop_fraction_removes_exact_floor(self):
        pairs, table = angled_pairs(10)
        kept = filter_pairs_by_similarity(pairs, preset_embedder(table), drop_fraction=0.10)
        assert len(kept) == 9
        # pos9 has the widest angle, hence the lowest similarity.
        assert all(p.positive != "pos9" for p in kept)
        assert [p.positive for p in kept] == [f"pos{i}" for i in range(9)]

    def test_drop_fraction_zero_is_identity(self):
        pairs, table = angled_pairs(5)
        kept = filter_pairs_by_similarity(pairs, preset_embedder(table), drop_fraction=0.0)
        assert [p.positive for p in kept] == [p.positive for p in pairs]

    def test_drop_fraction_floor_on_odd_sizes(self):
        pairs, table = angled_pairs(7)
        kept = filter_pairs_by_similarity(pairs, preset_embedder(table), drop_fraction=0.5)
        assert len(kept) == 7 - int(np.floor(0.5 * 7))

    def test_threshold_keeps_at_or_above(self):
        table = {
            "q": unit([1.0, 0.0]),
            "hi": unit([1.0, 0.0]),
            "mid": unit([1.0, 1.0]),
            "lo": unit([0.0, 1.0]),
        }
        pairs = [SentencePair(query="q", positive=p) for p in ("hi", "mid", "lo")]
        kept = filter_pairs_by_similarity(pairs, preset_embedder(table), threshold=0.7)
        assert [p.positive for p in kept] == ["hi", "mid"]

    def test_threshold_minus_one_keeps_everything(self):
        pairs, table = angled_pairs(6)
        kept = filter_pairs_by_similarity(pairs, preset_embedder(table), threshold=-1.0)
        assert len(kept) == 6

    def test_similarity_recorded_on_output(self):
        table = {"q": unit([1.0, 0.0]), "p": unit([1.0, 1.0])}
        kept = filter_pairs_by_similarity(
            [SentencePair(query="q", positive="p")], preset_embedder(table), threshold=-1.0
        )
        assert kept[0].similarity == pytest.approx(math.cos(math.radians(45)), abs=1e-12)

    def test_ties_dropped_in_input_order(self):
        table = {"q": unit([1.0, 0.0]), "same": unit([0.0, 1.0]), "other": unit([1.0, 0.0])}
        pairs = [
            SentencePair(query="q", positive="same", source_id="first"),
            SentencePair(query="q", positive="same", source_id="second"),
            SentencePair(query="q", positive="other"),
        ]
        kept = filter_pairs_by_similarity(pairs, preset_embedder(table), drop_fraction=1 / 3)
        assert [p.source_id for p in kept] == ["second", ""]

    def test_similarity_is_the_float64_dot_product(self):
        # float32 embeddings, as the model gives them; their float32 dot
        # product would be off by about 1e-8
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((6, 64)).astype(np.float32)
        table = {f"t{i}": v / np.linalg.norm(v) for i, v in enumerate(vecs)}
        pairs = [SentencePair(query=f"t{i}", positive=f"t{i + 3}") for i in range(3)]
        kept = filter_pairs_by_similarity(pairs, preset_embedder(table), threshold=-1.0)
        for pair in kept:
            q, p = table[pair.query], table[pair.positive]
            exact = math.fsum(float(a) * float(b) for a, b in zip(q, p))
            assert abs(pair.similarity - exact) <= 1e-15

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            filter_pairs_by_similarity([], preset_embedder({}), threshold=0.5)

    def test_exactly_one_mode_required(self):
        pairs, table = angled_pairs(3)
        with pytest.raises(ValueError):
            filter_pairs_by_similarity(pairs, preset_embedder(table))
        with pytest.raises(ValueError):
            filter_pairs_by_similarity(
                pairs, preset_embedder(table), threshold=0.5, drop_fraction=0.1
            )


def banded_corpus() -> tuple[dict[str, np.ndarray], list[str]]:
    """Corpus texts whose cosine to the query is their name."""
    sims = {"s95": 0.95, "s80": 0.80, "s70": 0.70, "s50": 0.50, "s20": 0.20}
    table = {"q": unit([1.0, 0.0])}
    for name, s in sims.items():
        table[name] = unit([s, math.sqrt(1 - s * s)])
    return table, list(sims)


def reference_mine(pairs, corpus, embedder, per_query, band):
    """The per-query mining loop the blocked scorer replaced: one product
    per query, then a comprehension over every corpus text."""
    lo, hi = band
    corpus_embs = np.stack([np.asarray(embedder(t)) for t in corpus])
    records = []
    for pair in pairs:
        sims = corpus_embs @ np.asarray(embedder(pair.query))
        candidates = [(float(sims[i]), i) for i in range(len(corpus))
                      if corpus[i] != pair.positive and lo <= sims[i] <= hi]
        candidates.sort(key=lambda item: (-item[0], item[1]))
        chosen = tuple(corpus[i] for _, i in candidates[:per_query])
        records.append(HardNegativeRecord(
            query=pair.query, positive=pair.positive, negatives=chosen,
            source_id=pair.source_id, flagged=len(chosen) < per_query))
    return records


class TestMineHardNegatives:
    def test_top_candidates_within_band(self):
        table, corpus = banded_corpus()
        table["pos"] = unit([1.0, 1.0])
        pairs = [SentencePair(query="q", positive="pos")]
        records = mine_hard_negatives(pairs, corpus, preset_embedder(table), per_query=2)
        assert len(records) == 1
        rec = records[0]
        # 0.95 is above the band, 0.20 below; the best two in-band remain.
        assert rec.negatives == ("s80", "s70")
        assert not rec.flagged

    def test_positive_never_selected(self):
        table, corpus = banded_corpus()
        table["s80q"] = table["s80"]
        pairs = [SentencePair(query="q", positive="s80")]
        records = mine_hard_negatives(pairs, corpus, preset_embedder(table), per_query=2)
        assert "s80" not in records[0].negatives
        assert records[0].negatives == ("s70", "s50")

    def test_short_supply_is_flagged(self):
        table, corpus = banded_corpus()
        table["pos"] = unit([0.0, 1.0])
        pairs = [SentencePair(query="q", positive="pos")]
        records = mine_hard_negatives(pairs, corpus, preset_embedder(table), per_query=4)
        assert records[0].flagged
        assert records[0].negatives == ("s80", "s70", "s50")

    def test_corpus_of_only_the_positive_yields_flagged_empty(self):
        table = {"q": unit([1.0, 0.0]), "pos": unit([1.0, 1.0])}
        pairs = [SentencePair(query="q", positive="pos")]
        records = mine_hard_negatives(pairs, ["pos"], preset_embedder(table), per_query=3)
        assert records[0].negatives == ()
        assert records[0].flagged

    def test_custom_band(self):
        table, corpus = banded_corpus()
        table["pos"] = unit([-1.0, 0.0])
        pairs = [SentencePair(query="q", positive="pos")]
        records = mine_hard_negatives(
            pairs, corpus, preset_embedder(table), per_query=5, band=(0.0, 0.6)
        )
        assert records[0].negatives == ("s50", "s20")

    def test_band_order_validated(self):
        with pytest.raises(ValueError):
            mine_hard_negatives([], [], preset_embedder({}), per_query=1, band=(0.9, 0.3))

    def test_per_query_validated(self):
        with pytest.raises(ValueError):
            mine_hard_negatives([], [], preset_embedder({}), per_query=0)

    def test_repeated_in_band_text_is_mined_once(self):
        table, corpus = banded_corpus()
        table["pos"] = unit([0.0, 1.0])
        pairs = [SentencePair(query="q", positive="pos")]
        repeated = ["s80", "s95", "s80", "s70", "s80", "s50", "s70", "s20"]
        records = mine_hard_negatives(pairs, repeated, preset_embedder(table), per_query=3)
        assert records[0].negatives == ("s80", "s70", "s50")
        records = mine_hard_negatives(pairs, repeated, preset_embedder(table), per_query=4)
        assert records[0].negatives == ("s80", "s70", "s50")
        assert records[0].flagged

    def test_equal_similarities_go_to_the_first_text(self):
        table, corpus = banded_corpus()
        table["pos"] = unit([0.0, 1.0])
        table["also80"] = table["s80"]
        pairs = [SentencePair(query="q", positive="pos")]
        records = mine_hard_negatives(pairs, ["s70", "also80", "s80"],
                                      preset_embedder(table), per_query=2)
        assert records[0].negatives == ("also80", "s80")

    @pytest.mark.parametrize("budget", [None, 1, 700])
    def test_matches_the_per_query_reference(self, monkeypatch, budget):
        rng = np.random.default_rng(19)
        table = {f"t{i}": unit(v) for i, v in enumerate(rng.standard_normal((300, 6)))}
        corpus = list(table)
        queries = {f"q{i}": unit(v) for i, v in enumerate(rng.standard_normal((40, 6)))}
        table.update(queries)
        # every third positive is a corpus text; the others are not in it
        pairs = [SentencePair(query=q, positive=corpus[3 * i] if i % 3 else "elsewhere",
                              source_id=str(i))
                 for i, q in enumerate(queries)]
        table["elsewhere"] = unit(np.ones(6))
        expected = reference_mine(pairs, corpus, preset_embedder(table), 5, (0.75, 0.95))
        if budget is not None:
            monkeypatch.setattr(evaluation, "_SCORE_FLOATS", budget)
        got = mine_hard_negatives(pairs, corpus, preset_embedder(table), per_query=5,
                                  band=(0.75, 0.95))
        assert got == expected
        assert any(r.flagged for r in got) and not all(r.flagged for r in got)


class TestRecordTypes:
    def test_pair_requires_text(self):
        with pytest.raises(ValueError):
            SentencePair(query="", positive="x")
        with pytest.raises(ValueError):
            SentencePair(query="x", positive="")

    def test_record_rejects_positive_among_negatives(self):
        with pytest.raises(ValueError):
            HardNegativeRecord(query="q", positive="p", negatives=("a", "p"))

    def test_record_rejects_silent_empty_negatives(self):
        with pytest.raises(ValueError):
            HardNegativeRecord(query="q", positive="p", negatives=())
        rec = HardNegativeRecord(query="q", positive="p", negatives=(), flagged=True)
        assert rec.negatives == ()


class TestJsonl:
    def test_documents_round_trip(self, tmp_path):
        docs = [
            CorpusDocument(id="a", text="first text", source="pubmed"),
            CorpusDocument(id="b", text="second text"),
        ]
        path = tmp_path / "docs.jsonl"
        write_documents(path, docs)
        assert read_documents(path) == docs

    def test_duplicate_ids_rejected_on_read(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: duplicate id 'a'")):
            read_documents(path)

    def test_pairs_round_trip(self, tmp_path):
        pairs = [
            SentencePair(query="q1", positive="p1", source_id="s", similarity=0.5),
            SentencePair(query="q2", positive="p2"),
        ]
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, pairs)
        assert read_pairs(path) == pairs

    def test_hard_negatives_round_trip(self, tmp_path):
        records = [
            HardNegativeRecord(query="q", positive="p", negatives=("n1", "n2")),
            HardNegativeRecord(query="q2", positive="p2", negatives=(), flagged=True),
        ]
        path = tmp_path / "hn.jsonl"
        write_hard_negatives(path, records)
        assert read_hard_negatives(path) == records

    @pytest.mark.parametrize("row", [
        {"id": "1", "text": 123}, {"id": "1"}, {"id": "1", "text": "x", "source": 7}])
    def test_documents_need_string_fields(self, tmp_path, row):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: ")):
            read_documents(path)

    @pytest.mark.parametrize("row", [{"text": "alpha beta"}, {"id": 7, "text": "x"},
                                     {"id": True, "text": "x"}],
                             ids=["missing", "number", "bool"])
    def test_document_id_must_be_a_json_string(self, tmp_path, row):
        # a number is not read as an id, so it cannot collide with "7"
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"id": "7", "text": "y"}) + "\n"
                        + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: 'id' must be a string, got {row.get('id')!r}")):
            read_documents(path)

    @pytest.mark.parametrize("row", [
        {"query": 5, "positive": "p"}, {"query": "q", "positive": ["p"]},
        {"query": "q", "positive": "p", "source_id": None}])
    def test_pairs_need_string_fields(self, tmp_path, row):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_pairs(path)

    @pytest.mark.parametrize("row", [
        {"query": "q", "positive": "p", "negatives": [1]},
        {"query": "q", "positive": "p", "negatives": "n1"},
        {"query": "q", "positive": "p"},
        {"query": None, "positive": "p", "negatives": ["n1"]}])
    def test_hard_negatives_need_string_fields(self, tmp_path, row):
        path = tmp_path / "hn.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_hard_negatives(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n\n{"id": "b", "text": "y"}\n')
        assert len(read_documents(path)) == 2
