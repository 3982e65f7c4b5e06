"""The package's file I/O: the atomic writer, the JSON-lines helpers, and
the exact bytes of every pipeline file written through them."""

import ast
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medeir import checkpoint
from medeir.checkpoint import atomic_write_bytes, numbered_jsonl, write_jsonl
from medeir.cli import dispatch
from medeir.datapipe import (
    CorpusDocument,
    HardNegativeRecord,
    SentencePair,
    write_documents,
    write_hard_negatives,
    write_pairs,
)
from medeir.tokenizer import SPECIAL_TOKENS, Vocabulary


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "sub" / "out.bin"
        atomic_write_bytes(target, [b"first"])
        atomic_write_bytes(target, [b"second"])
        assert target.read_bytes() == b"second"
        assert os.listdir(target.parent) == ["out.bin"]

    def test_mode_matches_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"x")
        write_documents(tmp_path / "docs.jsonl", [])
        assert (tmp_path / "docs.jsonl").stat().st_mode == plain.stat().st_mode

    def test_failed_write_keeps_old_bytes_and_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.jsonl"
        target.write_bytes(b"old\n")

        def broken_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(target, [b"new contents\n"])
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_rows_that_raise_mid_write_keep_old_bytes(self, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_bytes(b"old\n")

        def rows():
            yield {"a": 1}
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_jsonl(target, rows())
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_chunks_are_written_in_order(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, [b"ab", bytearray(b"cd"), memoryview(b"ef"), b"",
                                    np.arange(3, dtype=np.uint8)])
        assert target.read_bytes() == b"abcdef\x00\x01\x02"
        atomic_write_bytes(target, [])
        assert target.read_bytes() == b""

    def test_chunk_source_that_raises_keeps_old_bytes(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old\n")

        def chunks():
            yield b"new" * 10_000
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write_bytes(target, chunks())
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_stale_tmp_directory_does_not_block(self, tmp_path):
        target = tmp_path / "vocab.txt"
        (tmp_path / "vocab.txt.tmp").mkdir()
        atomic_write_bytes(target, [b"[PAD]\n"])
        assert target.read_bytes() == b"[PAD]\n"
        assert sorted(os.listdir(tmp_path)) == ["vocab.txt", "vocab.txt.tmp"]


class TestHashing:
    """Files are hashed in blocks; the digests are those of the whole file."""

    def test_file_hash_over_several_blocks(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(0).bytes(2 * checkpoint._HASH_BLOCK + 123))
        whole = hashlib.sha256(path.read_bytes()).hexdigest()
        assert checkpoint.file_hash(path) == whole
        path.write_bytes(b"")
        assert checkpoint.file_hash(path) == hashlib.sha256(b"").hexdigest()

    def test_checkpoint_hash_over_several_blocks(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{}\n")
        (tmp_path / "params.bin").write_bytes(
            np.random.default_rng(1).bytes(3 * checkpoint._HASH_BLOCK + 5))
        (tmp_path / "vocab.txt").write_text("[PAD]\n")
        whole = hashlib.sha256()
        for name in ("manifest.json", "params.bin", "vocab.txt"):  # no config.json
            whole.update(name.encode())
            whole.update((tmp_path / name).read_bytes())
        assert checkpoint.checkpoint_hash(tmp_path) == whole.hexdigest()


class TestReadJsonl:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
        assert list(numbered_jsonl(path, dict)) == [{"a": 1}, {"a": 2}]

    @pytest.mark.parametrize("bad", [b"{not json", b"[1, 2]", b'{"a": "\xff"}'])
    def test_bad_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"a": 1}\n\n' + bad + b"\n")
        with pytest.raises(ValueError, match="rows.jsonl:3"):
            list(numbered_jsonl(path, dict))

    def test_parser_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"a": -1}\n')

        def positive(row):
            if row["a"] < 0:
                raise ValueError("'a' must be >= 0")
            return row["a"]

        with pytest.raises(ValueError) as info:
            list(numbered_jsonl(path, positive))
        assert str(info.value) == f"{path}:3: 'a' must be >= 0"

    def test_given_bytes_are_parsed_instead_of_the_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": "on disk"}\n')
        data = b'{"a": 1}\n\n[2]\n'
        with pytest.raises(ValueError) as info:
            list(numbered_jsonl(path, dict, data))
        assert str(info.value) == f"{path}:3: expected a JSON object, got list"


_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "medeir"


def _line_number_fstrings() -> list[tuple[str, str, int]]:
    """(module, enclosing function, line) of every f-string under the
    package that interpolates a name or attribute spelled with "line"."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.FormattedValue):
            spelled = [n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node.value)
                       if isinstance(n, (ast.Name, ast.Attribute))]
            if any("line" in name.lower() for name in spelled):
                found.append((module, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(_PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_only_numbered_jsonl_formats_a_line_number():
    """A row error gets its path:line from numbered_jsonl alone; a parser
    raises a plain message."""
    found = _line_number_fstrings()
    assert {(module, function) for module, function, _ in found} == {
        ("checkpoint", "numbered_jsonl")}, found


def loads_per_line(path):
    """The reader before raw_decode: one json.loads per stripped line,
    yielding each row."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                row = json.loads(line)
            except ValueError as err:
                raise ValueError(f"{path}:{line_no}: invalid JSON line: {err}") from err
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{line_no}: expected a JSON object, "
                                 f"got {type(row).__name__}")
            yield row


def outcome(reader, path):
    rows = []
    try:
        for row in reader(path):
            rows.append(row)
    except ValueError as err:
        return rows, str(err)
    return rows, None


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_VALUES = st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(),
                    st.none(), _TEXT)
_OBJECTS = st.builds(lambda d, ascii_: json.dumps(d, ensure_ascii=ascii_),
                     st.dictionaries(_TEXT, _VALUES, max_size=3), st.booleans())
_NON_OBJECTS = st.builds(json.dumps, st.one_of(_VALUES, st.lists(_VALUES, max_size=3)))
_PAD = st.sampled_from(["", " ", "\t", "\r", "\xa0", "\u2003", " \r\r", "\x0c"])
_BAD_TAILS = st.sampled_from([" {}", "x", "]", "}", ",", " 1", "\ufeff"])
_BODIES = st.one_of(
    _OBJECTS,
    _NON_OBJECTS,
    st.builds(lambda obj, tail: obj + tail, _OBJECTS, _BAD_TAILS),  # extra data
    _OBJECTS.map(lambda obj: obj[:-1]),                             # truncated
    _OBJECTS.map(lambda obj: "\ufeff" + obj),                      # a UTF-8 BOM
    st.just(""),
)
_LINES = st.one_of(
    st.builds(lambda pre, body, post: (pre + body + post).encode("utf-8"),
              _PAD, _BODIES, _PAD),
    st.sampled_from([b"\xff", b'{"a": "\xff"}', b"{\"a\": 1}\xc3", b"\xef\xbb"]),
)


class TestReadJsonlMatchesLoadsPerLine:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_LINES, max_size=8), st.booleans())
    def test_same_rows_and_messages(self, lines, final_newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.jsonl"
            path.write_bytes(b"\n".join(lines) + (b"\n" if final_newline else b""))
            expected = outcome(loads_per_line, path)
            assert outcome(lambda p: numbered_jsonl(p, dict), path) == expected
            data = path.read_bytes()
            assert outcome(lambda p: numbered_jsonl(p, dict, data), path) == expected


class TestGoldenBytes:
    def test_documents(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_documents(path, [
            CorpusDocument(id="d1", text="Hämoglobin\nß-Blocker", source="pubmed"),
            CorpusDocument(id="d2", text='say "hi"'),
        ])
        assert path.read_bytes() == (
            '{"id": "d1", "text": "Hämoglobin\\nß-Blocker", "source": "pubmed"}\n'
            '{"id": "d2", "text": "say \\"hi\\""}\n').encode("utf-8")

    def test_pairs(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, [
            SentencePair(query="café", positive="naïve", source_id="s",
                         similarity=0.25),
            SentencePair(query="q", positive="p"),
        ])
        assert path.read_bytes() == (
            '{"query": "café", "positive": "naïve", "source_id": "s", '
            '"similarity": 0.25}\n'
            '{"query": "q", "positive": "p", "source_id": ""}\n').encode("utf-8")

    def test_hard_negatives(self, tmp_path):
        path = tmp_path / "hn.jsonl"
        write_hard_negatives(path, [
            HardNegativeRecord(query="q", positive="p", negatives=("n1", "µ"),
                               source_id="s"),
            HardNegativeRecord(query="q2", positive="p2", negatives=(),
                               flagged=True),
        ])
        assert path.read_bytes() == (
            '{"query": "q", "positive": "p", "negatives": ["n1", "µ"], '
            '"source_id": "s"}\n'
            '{"query": "q2", "positive": "p2", "negatives": [], "source_id": "", '
            '"flagged": true}\n').encode("utf-8")

    @pytest.mark.parametrize("writer", [write_documents, write_pairs,
                                        write_hard_negatives])
    def test_empty_list_writes_empty_file(self, tmp_path, writer):
        path = tmp_path / "empty.jsonl"
        writer(path, [])
        assert path.read_bytes() == b""

    def test_packed_chunk_lines(self, tmp_path):
        vocab = tmp_path / "vocab.txt"
        Vocabulary(list(SPECIAL_TOKENS) + ["alpha", "beta"]).save(vocab)
        corpus = tmp_path / "corpus.jsonl"
        write_documents(corpus, [CorpusDocument(id="a", text="alpha beta alpha"),
                                 CorpusDocument(id="b", text="beta alpha"),
                                 CorpusDocument(id="c", text="beta")])
        out = tmp_path / "chunks.jsonl"
        assert dispatch(["data", "pack", "--in", str(corpus), "--vocab", str(vocab),
                         "--out", str(out), "--chunk-len", "3",
                         "--min-tail", "2"]) == 0
        # [SEP] is id 3, "alpha" 5, "beta" 6. The first chunk ends exactly
        # where doc "a" does, so no [SEP] precedes doc "b"; one precedes
        # doc "c", whose 1-id tail is shorter than min_tail and dropped.
        assert out.read_bytes() == b'{"ids": [5, 6, 5]}\n{"ids": [6, 5, 3]}\n'


def test_vocabulary_save_bytes(tmp_path):
    path = tmp_path / "vocab.txt"
    Vocabulary(list(SPECIAL_TOKENS) + ["ä", "##b"]).save(path)
    assert path.read_bytes() == ("\n".join(SPECIAL_TOKENS) + "\nä\n##b\n").encode()
    assert os.listdir(tmp_path) == ["vocab.txt"]
