"""Sanity checks of the synthetic data generators in support (the smoke
pipeline itself is exercised by the acceptance suite)."""

import math

import pytest

from medeir.model import ModelConfig, build_model
from medeir.tokenizer import SPECIAL_TOKENS

from support import (
    bigram_sequences,
    bigram_stream,
    bigram_vocabulary,
    synthetic_topic_pairs,
    windowed_masked_ce,
)


class TestTopicPairs:
    def test_shapes(self):
        data = synthetic_topic_pairs(n_topics=4, train_per_topic=3,
                                     eval_per_topic=2, seed=1)
        assert len(data.train) == 12
        assert len(data.dataset.queries) == 8
        assert len(data.dataset.corpus) == 8
        assert all(len(rels) == 1 for rels in data.dataset.qrels.values())

    def test_query_and_doc_pools_are_disjoint(self):
        data = synthetic_topic_pairs(n_topics=3, seed=2)
        query_words = set()
        doc_words = set()
        for pair in data.train:
            query_words.update(pair.query.split())
            doc_words.update(pair.positive.split())
        for qid, text in data.dataset.queries.items():
            query_words.update(text.split())
        for did, text in data.dataset.corpus.items():
            doc_words.update(text.split())
        assert not query_words & doc_words

    def test_vocab_covers_every_word(self):
        data = synthetic_topic_pairs(n_topics=5, seed=3)
        texts = [p.query for p in data.train] + [p.positive for p in data.train]
        texts += list(data.dataset.queries.values())
        texts += list(data.dataset.corpus.values())
        for text in texts:
            for word in text.split():
                assert word in data.vocab

    def test_seed_reproducibility(self):
        a = synthetic_topic_pairs(seed=9)
        b = synthetic_topic_pairs(seed=9)
        assert a.train == b.train
        assert a.dataset.queries == b.dataset.queries


class TestBigramStream:
    def test_ids_in_word_range(self):
        vocab = bigram_vocabulary(10)
        stream = bigram_stream(vocab, 200, seed=0)
        n_special = len(SPECIAL_TOKENS)
        assert len(stream) == 200
        assert all(n_special <= i < len(vocab) for i in stream)

    def test_mostly_successor_transitions(self):
        vocab = bigram_vocabulary(12)
        stream = bigram_stream(vocab, 2000, seed=1, loop_prob=0.85)
        n_special = len(SPECIAL_TOKENS)
        succ = sum(1 for a, b in zip(stream, stream[1:])
                   if (b - n_special) == ((a - n_special) + 1) % 12)
        assert succ / (len(stream) - 1) > 0.8

    def test_sequences_are_grouped_per_token(self):
        vocab = bigram_vocabulary(8)
        seqs = bigram_sequences(vocab, count=3, length=32, seed=2)
        assert len(seqs) == 3
        assert all(len(s.ids) == 32 for s in seqs)
        assert all(len(s.word_groups) == 32 for s in seqs)


class TestWindowedCe:
    def test_untrained_model_near_uniform(self):
        vocab = bigram_vocabulary(12)
        config = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1,
                             heads=2, ffn_dim=32, num_projections=2,
                             max_train_len=64, max_infer_len=128)
        model = build_model(config, seed=0)
        stream = bigram_stream(vocab, 256, seed=5)
        ce = windowed_masked_ce(model, vocab, stream, window=64)
        assert ce == pytest.approx(math.log(len(vocab)), rel=0.05)

    def test_same_positions_masked_across_window_sizes(self):
        # The masked set depends on absolute stream position only, so CE at
        # two window sizes scores the same tokens.
        stream_len = 512
        for window in (64, 256):
            positions = []
            for start in range(0, stream_len - window + 1, window):
                positions.extend(start + i for i in range(window)
                                 if (start + i) % 7 == 3)
            assert positions == [i for i in range(stream_len) if i % 7 == 3]

    def test_short_stream_rejected(self):
        vocab = bigram_vocabulary(6)
        config = ModelConfig(vocab_size=len(vocab), hidden=16, layers=1,
                             heads=2, ffn_dim=32, num_projections=2,
                             max_train_len=16, max_infer_len=32)
        model = build_model(config, seed=0)
        with pytest.raises(ValueError):
            windowed_masked_ce(model, vocab, bigram_stream(vocab, 4, seed=0),
                               window=8)
