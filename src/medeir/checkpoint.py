"""Checkpoint serialization: a JSON manifest plus one raw little-endian blob.

A checkpoint is a directory:
    manifest.json   {"version": 1, "tensors": [{name, shape, dtype, offset}]}
    params.bin      concatenation of the tensors' bytes in manifest order

Model-level saves add sidecar files (config.json, vocab.txt) on top; those
live with the model code.

This module also holds the package's file I/O. Every file the package
writes goes through atomic_write_bytes, which takes an iterable of
bytes-like chunks and writes each to a uniquely named temp file in the
target's directory as it comes; the file is fsynced and then renamed over
the target, or removed again if anything fails (the chunk source included),
so a crash never leaves a half-written artifact behind. JSON-lines files are
written by write_jsonl, one line at a time, and read by numbered_jsonl,
whose errors name the line; string_field reads one text field of a row,
id_error is the one message for an id that is not a JSON string, and
_id_text_rows holds the one rule for a file of {"id", "text"} rows.
config_from_dict turns a JSON object read from a file into a config
dataclass, checking each value's JSON type.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Iterator, get_type_hints

import numpy as np

CHECKPOINT_VERSION = 1

_DTYPES = {
    "float32": "<f4",
    "float64": "<f8",
    "int64": "<i8",
    "int32": "<i4",
}
_CANONICAL = {np.dtype(v): k for k, v in _DTYPES.items()}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what a JSON value must be to fill a config field of each annotated type
_JSON_TYPES = {
    int: ("an integer", _is_int),
    float: ("a number", lambda v: isinstance(v, float) or _is_int(v)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[int, ...]: ("a list of integers",
                      lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
}

# what each field of a manifest's tensor entry must be
_ENTRY_FIELDS = (
    ("name", "a string", lambda v: isinstance(v, str)),
    ("shape", "a list of integers >= 0",
     lambda v: isinstance(v, list) and all(_is_int(n) and n >= 0 for n in v)),
    ("dtype", f"one of {sorted(_DTYPES)}", lambda v: isinstance(v, str) and v in _DTYPES),
    ("offset", "an integer >= 0", lambda v: _is_int(v) and v >= 0),
)


def atomic_write_bytes(path: Path, chunks: Iterable) -> None:
    """Replace path with the concatenation of chunks, an iterable of
    bytes-like objects, in one step, creating its directory if needed.

    Each chunk is written as it comes. The file gets the mode a plain open()
    would give it. On any failure, including one raised by the chunk
    source, the temp file is removed and the target keeps its old bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates it 0600
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, (text.encode("utf-8"),))


def write_jsonl(path: Path, rows: Iterable[dict]) -> None:
    """One json.dumps(row, ensure_ascii=False) per line, written atomically
    as the rows come."""
    atomic_write_bytes(path, ((json.dumps(row, ensure_ascii=False) + "\n").encode()
                              for row in rows))


_RAW_DECODE = json.JSONDecoder().raw_decode
_HASH_BLOCK = 1 << 16


class _DigestFile(io.FileIO):
    """A file opened for reading whose every block read is fed to a digest.
    A BufferedReader over it reads by readinto alone when iterated by line."""

    def __init__(self, path: Path, digest):
        super().__init__(path, "rb")
        self._digest = digest

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        if n:
            self._digest.update(memoryview(buffer)[:n])
        return n


def numbered_jsonl(path: Path, digest=None) -> Iterator[tuple[int, dict]]:
    """Yield (line number, JSON object) for each non-blank line of a UTF-8
    file.

    A line that is not UTF-8 or does not hold a JSON object raises
    ValueError naming path:line. Each line is decoded by one call into the
    C scanner; json.loads runs only on a line that fails, to raise the
    decoder's own message. A given hashlib digest is fed the file's bytes as
    they are read, so once the file is read to its end it covers exactly the
    bytes that were parsed.
    """
    if digest is None:
        fh = open(path, "rb")
    else:
        fh = io.BufferedReader(_DigestFile(path, digest), _HASH_BLOCK)
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                try:
                    row, end = _RAW_DECODE(line)
                except ValueError:
                    end = -1
                if end != len(line):
                    row = json.loads(line)
            except ValueError as err:
                raise ValueError(f"{path}:{line_no}: invalid JSON line: {err}") from err
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{line_no}: expected a JSON object, "
                                 f"got {type(row).__name__}")
            yield line_no, row


def id_error(path: Path, line: int, key: str, value) -> ValueError:
    """An id is a JSON string: a number is not taken for one."""
    return ValueError(f"{path}:{line}: {key!r} must be a string, got {value!r}")


def string_field(row: dict, key: str, path: Path | str,
                 default: str | None = None) -> str:
    """row[key], which must be a string; a missing key gives default, or a
    ValueError naming path (a file, or file:line) when default is None."""
    if key not in row:
        if default is None:
            raise ValueError(f"{path}: a record has no {key!r} field")
        return default
    value = row[key]
    if not isinstance(value, str):
        raise ValueError(f"{path}: {key!r} must be a string, got {value!r}")
    return value


def _id_text_rows(path: Path, digest=None) -> Iterator[tuple[int, str, str, dict]]:
    """(line number, id, text, row) for each row of a JSONL file of
    {"id", "text"} rows, read by numbered_jsonl. The id must be a JSON
    string that no earlier row holds, and the text a string; each error
    names path:line."""
    seen = set()
    for line, row in numbered_jsonl(path, digest):
        key = row.get("id")
        if type(key) is not str:
            raise id_error(path, line, "id", key)
        if key in seen:
            raise ValueError(f"{path}:{line}: duplicate id {key!r}")
        seen.add(key)
        text = row.get("text")
        if type(text) is not str:  # path:line is formatted only for a bad row
            text = string_field(row, "text", f"{path}:{line}")
        yield line, key, text, row


def config_from_dict(cls: type, blob: dict):
    """Build the dataclass cls from a JSON object; an unknown key, a value
    of the wrong JSON type (a bool is not a number) or a missing field is a
    ValueError."""
    name = cls.__name__
    unknown = set(blob) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    for key, value in blob.items():
        what, matches = _JSON_TYPES[hints[key]]
        if not matches(value):
            raise ValueError(f"invalid {name}: {key} must be {what}, got {value!r}")
    try:
        return cls(**blob)
    except TypeError as err:
        raise ValueError(f"invalid {name}: {err}") from err


def save_arrays(directory: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays as manifest.json + params.bin under directory.

    params.bin is written from each array's own memory (a contiguous array
    of the stored dtype is not copied)."""
    directory = Path(directory)
    entries = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        canonical = _CANONICAL.get(np.dtype(arr.dtype.name))
        if canonical is None:
            raise ValueError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[canonical]).reshape(-1)
        raw = raw.view(np.uint8)  # the array's own bytes, not a copy
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": canonical,
            "offset": offset,
        })
        chunks.append(raw)
        offset += raw.nbytes
    manifest = {"version": CHECKPOINT_VERSION, "tensors": entries}
    atomic_write_text(directory / "manifest.json",
                      json.dumps(manifest, indent=2) + "\n")
    atomic_write_bytes(directory / "params.bin", chunks)


def load_arrays(directory: Path) -> dict[str, np.ndarray]:
    """The named arrays under directory. params.bin is read once into one
    writable buffer; each array is a view of it (on a little-endian host).
    A manifest field that is missing or of the wrong type is a ValueError
    naming manifest.json and the field."""
    directory = Path(directory)
    path = directory / "manifest.json"
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or "version" not in manifest:
        raise ValueError(f"{path}: checkpoint manifest missing version field")
    if manifest["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {manifest['version']}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'tensors' must be a list, got {entries!r}")
    for entry in entries:
        for key, what, valid in _ENTRY_FIELDS:
            value = entry.get(key) if isinstance(entry, dict) else None
            if not valid(value):
                raise ValueError(f"{path}: tensor {key!r} must be {what}, got {value!r}")
    with open(directory / "params.bin", "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]  # in case the file shrank meanwhile
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        dtype = np.dtype(_DTYPES[entry["dtype"]])
        shape = tuple(entry["shape"])
        arr = np.frombuffer(blob, dtype=dtype, count=math.prod(shape),
                            offset=entry["offset"]).reshape(shape)
        arrays[entry["name"]] = arr.astype(dtype.newbyteorder("="), copy=False)
    return arrays


def _hash_file(digest, path: Path) -> None:
    """Feed path's bytes to digest one block at a time."""
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_HASH_BLOCK), b""):
            digest.update(block)


def checkpoint_hash(directory: Path) -> str:
    """Stable content hash over the manifest and parameter blob."""
    directory = Path(directory)
    digest = hashlib.sha256()
    for name in ("manifest.json", "params.bin", "config.json", "vocab.txt"):
        path = directory / name
        if path.exists():
            digest.update(name.encode())
            _hash_file(digest, path)
    return digest.hexdigest()


def file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    _hash_file(digest, Path(path))
    return digest.hexdigest()
