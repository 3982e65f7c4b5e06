"""Domain-adapted WordPiece tokenization: training, vocabulary merging, encoding.

The vocabulary convention is BERT-style: word-initial pieces are stored bare,
word-internal pieces carry the continuation prefix ``##``. The prefix, the
five BERT special tokens and lowercasing are fixed: every vocabulary this
package trains, merges or loads uses them. Training scores candidate merges
by pair frequency divided by the product of the part frequencies;
segmentation is greedy longest-match-first. Both are deterministic for fixed
inputs. A TokenizerModel segments each distinct word once and keeps its ids
in a bounded per-instance memo; a vocabulary never changes after it is
built, so the memo is exact.
"""

from __future__ import annotations

import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .checkpoint import atomic_write_text

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
CONTINUATION_PREFIX = "##"
MAX_CHARS_PER_WORD = 100  # a longer word encodes as [UNK]
# distinct words a TokenizerModel memoizes; later new words are segmented
# on every occurrence (about 10 MB of short words at the bound)
_MEMO_WORDS = 1 << 16

PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN = SPECIAL_TOKENS


def pretokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, then split punctuation off as
    separate words."""
    words: list[str] = []
    for chunk in text.lower().split():
        if chunk.isalnum():  # letters and numbers only: no punctuation in it
            words.append(chunk)
            continue
        buf: list[str] = []
        for ch in chunk:
            if unicodedata.category(ch).startswith("P"):
                if buf:
                    words.append("".join(buf))
                    buf.clear()
                words.append(ch)
            else:
                buf.append(ch)
        if buf:
            words.append("".join(buf))
    return words


class Vocabulary:
    """Ordered token inventory with contiguous ids; holds every special token."""

    def __init__(self, tokens: Iterable[str]):
        self.tokens = list(tokens)
        self.id_of: dict[str, int] = dict(zip(self.tokens, range(len(self.tokens))))
        if (len(self.id_of) != len(self.tokens) or "" in self.id_of
                or CONTINUATION_PREFIX in self.id_of):
            self._raise_first_fault()
        for sp in SPECIAL_TOKENS:
            if sp not in self.id_of:
                raise ValueError(f"special token {sp!r} missing from vocabulary")
        self._special_ids = frozenset(self.id_of[sp] for sp in SPECIAL_TOKENS)

    def _raise_first_fault(self) -> None:
        """Raise for the first bad token in id order."""
        seen: set[str] = set()
        for tok in self.tokens:
            if not tok:
                raise ValueError("empty token string")
            if tok == CONTINUATION_PREFIX:
                raise ValueError("bare continuation prefix is not a valid token")
            if tok in seen:
                raise ValueError(f"duplicate token {tok!r}")
            seen.add(tok)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.id_of

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise ValueError(f"unknown token id {token_id}")
        return self.tokens[token_id]

    def is_special_id(self, token_id: int) -> bool:
        return token_id in self._special_ids

    def is_continuation(self, token: str) -> bool:
        return token.startswith(CONTINUATION_PREFIX)

    def save(self, path: str | Path) -> None:
        """Write one token per line; the line number is the id."""
        atomic_write_text(Path(path), "\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """The vocabulary of a UTF-8 file of one token per line (blank lines
        skipped); an undecodable or invalid one is a ValueError naming path."""
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
            return cls(ln for ln in lines if ln)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err


@dataclass
class EncodedSequence:
    """Token ids plus the word-boundary structure needed for whole-word masking.

    ``word_groups`` are half-open ``(start, end)`` spans over ``ids``, one per
    source word; they partition the non-special positions.
    """

    ids: list[int]
    word_groups: list[tuple[int, int]]
    special_positions: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        n = len(self.ids)
        specials = self.special_positions
        covered = prev_end = 0
        for start, end in self.word_groups:
            if not 0 <= start < end <= n:
                raise ValueError(f"bad word group span ({start}, {end})")
            if start < prev_end:
                raise ValueError("word groups overlap or are unordered")
            if specials and not specials.isdisjoint(range(start, end)):
                raise ValueError("word group overlaps a special position")
            covered += end - start
            prev_end = end
        # the groups are disjoint and hold no special position, so with the
        # specials they cover 0..n-1 exactly when every special lies in that
        # range and the counts add up to n
        if covered + len(specials) != n or (
                specials and not 0 <= min(specials) <= max(specials) < n):
            raise ValueError("word groups and specials do not partition the sequence")

    def non_special_length(self) -> int:
        return len(self.ids) - len(self.special_positions)


@dataclass
class TokenizerReport:
    """Sub-token counts and fertility for two tokenizers over one corpus."""

    corpus_id: str
    tokens_base: int
    tokens_merged: int
    reduction_pct: float
    fertility_base: float
    fertility_merged: float


class TokenizerModel:
    """Greedy longest-match WordPiece segmenter over a fixed vocabulary."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self._word_ids: dict[str, tuple[int, ...]] = {}

    def segment_word(self, word: str) -> list[str]:
        """Greedy longest-match segmentation of one word; [UNK] if it fails."""
        if len(word) > MAX_CHARS_PER_WORD:
            return [UNK_TOKEN]
        pieces: list[str] = []
        i = 0
        while i < len(word):
            end = len(word)
            match = None
            while end > i:
                sub = word[i:end]
                cand = sub if i == 0 else CONTINUATION_PREFIX + sub
                if cand in self.vocab:
                    match = cand
                    break
                end -= 1
            if match is None:
                return [UNK_TOKEN]
            pieces.append(match)
            i = end
        return pieces

    def encode(self, text: str) -> EncodedSequence:
        ids: list[int] = []
        groups: list[tuple[int, int]] = []
        memo = self._word_ids
        for word in pretokenize(text):
            word_ids = memo.get(word)
            if word_ids is None:
                word_ids = tuple(self.vocab.id_of[p] for p in self.segment_word(word))
                if len(memo) < _MEMO_WORDS:
                    memo[word] = word_ids
            start = len(ids)
            ids.extend(word_ids)
            groups.append((start, len(ids)))
        return EncodedSequence(ids, groups)

    def tokens(self, text: str) -> list[str]:
        """Token strings for ``text``; convenience over :meth:`encode`."""
        return [self.vocab.token(i) for i in self.encode(text).ids]


def sequence_from_ids(vocab: Vocabulary, ids: Sequence[int]) -> EncodedSequence:
    """Reconstruct word groups for a raw id sequence (e.g. a packed chunk).

    Continuation tokens extend the preceding group; special tokens break
    groups and land in ``special_positions``.
    """
    groups: list[tuple[int, int]] = []
    specials: set[int] = set()
    start = None
    for pos, token_id in enumerate(ids):
        tok = vocab.token(token_id)
        if vocab.is_special_id(token_id):
            if start is not None:
                groups.append((start, pos))
                start = None
            specials.add(pos)
        elif vocab.is_continuation(tok) and start is not None:
            continue
        else:
            if start is not None:
                groups.append((start, pos))
            start = pos
    if start is not None:
        groups.append((start, len(ids)))
    return EncodedSequence(list(ids), groups, frozenset(specials))


def train_wordpiece(
    corpus: Iterable[str],
    target_size: int,
    min_frequency: int = 2,
) -> Vocabulary:
    """Learn a WordPiece vocabulary of at most ``target_size`` tokens.

    Merges maximize pair frequency divided by the product of part frequencies,
    computed in exact integer arithmetic. Equal scores are broken by
    lexicographic order of the merged token (prefix-stripped text first), so
    training is reproducible.
    """
    word_counts: Counter[str] = Counter()
    for doc in corpus:
        word_counts.update(pretokenize(doc))
    if not word_counts:
        raise ValueError("empty corpus")

    reps = {
        w: [w[0]] + [CONTINUATION_PREFIX + ch for ch in w[1:]] for w in word_counts
    }
    alphabet = sorted({s for rep in reps.values() for s in rep})
    base = list(SPECIAL_TOKENS) + [s for s in alphabet if s not in SPECIAL_TOKENS]
    if target_size < len(base):
        raise ValueError(
            f"target_size {target_size} below specials + alphabet ({len(base)})"
        )

    vocab: dict[str, None] = dict.fromkeys(base)
    sym_counts: Counter[str] = Counter()
    pair_counts: Counter[tuple[str, str]] = Counter()
    pair_words: defaultdict[tuple[str, str], set[str]] = defaultdict(set)

    def add_word(word: str, count: int) -> None:
        rep = reps[word]
        for s in rep:
            sym_counts[s] += count
        for pair in zip(rep, rep[1:]):
            pair_counts[pair] += count
            pair_words[pair].add(word)

    def remove_word(word: str, count: int) -> None:
        rep = reps[word]
        for s in rep:
            sym_counts[s] -= count
        for pair in zip(rep, rep[1:]):
            pair_counts[pair] -= count
            if pair_counts[pair] <= 0:
                del pair_counts[pair]
                pair_words.pop(pair, None)
            else:
                pair_words[pair].discard(word)

    for w, c in word_counts.items():
        add_word(w, c)

    def merge_rep(rep: list[str], pair: tuple[str, str], merged: str) -> list[str]:
        out: list[str] = []
        i = 0
        while i < len(rep):
            if i + 1 < len(rep) and (rep[i], rep[i + 1]) == pair:
                out.append(merged)
                i += 2
            else:
                out.append(rep[i])
                i += 1
        return out

    while len(vocab) < target_size:
        best_pair = None
        best_merged = None
        best_num = best_den = 0
        best_key: tuple[str, str] | None = None
        for pair, pc in pair_counts.items():
            if pc < min_frequency:
                continue
            num = pc
            den = sym_counts[pair[0]] * sym_counts[pair[1]]
            merged = pair[0] + pair[1].removeprefix(CONTINUATION_PREFIX)
            key = (merged.removeprefix(CONTINUATION_PREFIX), merged)
            # compare num/den > best_num/best_den without floats
            if best_pair is None or num * best_den > best_num * den or (
                num * best_den == best_num * den and key < best_key
            ):
                best_pair, best_merged = pair, merged
                best_num, best_den, best_key = num, den, key
        if best_pair is None:
            break
        for w in sorted(pair_words.get(best_pair, ())):
            c = word_counts[w]
            remove_word(w, c)
            reps[w] = merge_rep(reps[w], best_pair, best_merged)
            add_word(w, c)
        if best_merged not in vocab:
            vocab[best_merged] = None

    return Vocabulary(vocab)


def merge_vocabularies(base: Vocabulary, domain: Vocabulary) -> Vocabulary:
    """Append domain tokens not already in ``base``; base ids are preserved."""
    tokens = list(base.tokens)
    seen = set(tokens)
    for tok in domain.tokens:
        if tok not in seen:
            tokens.append(tok)
            seen.add(tok)
    return Vocabulary(tokens)


def count_subtokens(model: TokenizerModel, texts: Iterable[str]) -> tuple[int, int]:
    """(sub-token count excluding specials, word count) over ``texts``."""
    tokens = 0
    words = 0
    for text in texts:
        seq = model.encode(text)
        tokens += sum(1 for i in seq.ids if not model.vocab.is_special_id(i))
        words += len(seq.word_groups)
    return tokens, words


def tokenizer_compare(
    tok_a: TokenizerModel,
    tok_b: TokenizerModel,
    corpus: Sequence[str],
    corpus_id: str = "corpus",
) -> TokenizerReport:
    """Compare sub-token efficiency of two tokenizers over the same corpus."""
    if not corpus:
        raise ValueError("empty corpus")
    tokens_a, words_a = count_subtokens(tok_a, corpus)
    tokens_b, words_b = count_subtokens(tok_b, corpus)
    if tokens_a == 0:
        raise ValueError("base tokenizer produced no countable tokens")
    return TokenizerReport(
        corpus_id=corpus_id,
        tokens_base=tokens_a,
        tokens_merged=tokens_b,
        reduction_pct=100.0 * (tokens_a - tokens_b) / tokens_a,
        fertility_base=tokens_a / max(words_a, 1),
        fertility_merged=tokens_b / max(words_b, 1),
    )
