"""Checkpoint serialization: a JSON manifest plus one raw little-endian blob.

A checkpoint is a directory:
    manifest.json   {"version": 1, "tensors": [{name, shape, dtype, offset}]}
    params.bin      concatenation of the tensors' bytes in manifest order

Loading holds a checkpoint to that layout: each offset is the total size
of the entries before it, and the last entry ends where params.bin does.

Model-level saves add sidecar files (config.json, vocab.txt) on top; those
live with the model code.

This module also holds the package's file I/O. Every file the package
writes goes through atomic_write_bytes, which takes an iterable of
bytes-like chunks and writes each to a uniquely named temp file in the
target's directory as it comes; the file is fsynced and then renamed over
the target, or removed again if anything fails (the chunk source included),
so a crash never leaves a half-written artifact behind. JSON-lines files are
written by write_jsonl, one line at a time, and read by numbered_jsonl,
which runs a per-row parser on each line's object and is the one place
that prefixes a row error with path:line. The parsers check rows with
string_field (a text field), id_field (an id, which must be a JSON string)
and id_text (the one rule for a file of {"id", "text"} rows); they raise
plain messages. A whole-file JSON object (a stage config, config.json,
manifest.json, dataset.json) is read by read_json_object, whose errors
name the file. config_from_dict turns such an object into a config
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
from typing import Callable, Iterable, Iterator, TypeVar, get_type_hints

import numpy as np

CHECKPOINT_VERSION = 1

_T = TypeVar("_T")

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


def numbered_jsonl(path: Path, parse: Callable[[dict], _T],
                   data: bytes | None = None) -> Iterator[_T]:
    """Yield parse(row) for the JSON object on each non-blank line of a
    UTF-8 JSON-lines file: the bytes data when given (path only names
    them), else the file at path, read as the rows are asked for.

    This is the one place a row error gets its location: a line that is
    not UTF-8 or does not hold a JSON object, or a ValueError that parse
    raises, is a ValueError naming path:line. Each line is decoded by one
    call into the C scanner; json.loads runs only on a line that fails, to
    raise the decoder's own message.
    """
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
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
                if not isinstance(row, dict):
                    raise ValueError(f"expected a JSON object, got {type(row).__name__}")
                value = parse(row)
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                raise ValueError(f"{path}:{line_no}: invalid JSON line: {err}") from err
            except ValueError as err:
                raise ValueError(f"{path}:{line_no}: {err}") from err
            yield value


def read_json_object(path: Path) -> dict:
    """The JSON object a whole UTF-8 file holds; anything else is a
    ValueError naming path."""
    try:
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:
        raise ValueError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(blob).__name__}")
    return blob


def string_field(row: dict, key: str, default: str | None = None) -> str:
    """row[key], which must be a string; a missing key gives default, or is
    a ValueError when default is None."""
    value = row.get(key, default)
    if type(value) is not str:
        if key not in row:
            raise ValueError(f"a record has no {key!r} field")
        raise ValueError(f"{key!r} must be a string, got {value!r}")
    return value


def id_field(row: dict, key: str) -> str:
    """row[key], an id: a JSON string (a number is not taken for one)."""
    value = row.get(key)
    if type(value) is not str:
        raise ValueError(f"{key!r} must be a string, got {value!r}")
    return value


def id_text(row: dict, seen: set[str]) -> tuple[str, str]:
    """The id and text of an {"id", "text"} row, the one rule for such
    files: the id must be a JSON string that seen, the ids of the earlier
    rows, does not hold (it is added), and the text a string."""
    key = id_field(row, "id")
    if key in seen:
        raise ValueError(f"duplicate id {key!r}")
    seen.add(key)
    return key, string_field(row, "text")


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
    A manifest field that is missing or of the wrong type, a name given to
    two entries, or an entry that does not start where the one before it
    ends, is a ValueError naming manifest.json; a params.bin of another
    size than the manifest lays out is one naming params.bin. So no two
    arrays share a byte, and no array is dropped for another of its name."""
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = read_json_object(path)
    if "version" not in manifest:
        raise ValueError(f"{path}: checkpoint manifest missing version field")
    if manifest["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {manifest['version']}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'tensors' must be a list, got {entries!r}")
    for entry in entries:
        for key, what, valid in _ENTRY_FIELDS:
            value = entry.get(key) if isinstance(entry, dict) else None
            if not valid(value):
                raise ValueError(f"{path}: tensor {key!r} must be {what}, got {value!r}")
    end, names = 0, set()
    for entry in entries:
        if entry["name"] in names:
            raise ValueError(f"{path}: tensor {entry['name']!r} is named twice")
        names.add(entry["name"])
        if entry["offset"] != end:
            raise ValueError(f"{path}: tensor {entry['name']!r} starts at byte "
                             f"{entry['offset']}, not at {end} where the one before it ends")
        end += math.prod(entry["shape"]) * np.dtype(_DTYPES[entry["dtype"]]).itemsize
    bin_path = directory / "params.bin"
    with open(bin_path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]  # in case the file shrank meanwhile
    if len(blob) != end:
        raise ValueError(f"{bin_path}: holds {len(blob)} bytes, but the manifest "
                         f"lays out {end}")
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
