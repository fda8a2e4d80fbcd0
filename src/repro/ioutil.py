"""Durable file I/O shared across the repo: atomic writes, JSONL journals.

Every derived artifact the repo persists (ResultSet exports, campaign
artifacts, memo-cache entries) goes through one of
these helpers instead of a bare ``Path.write_text``.  The contract:

* readers never observe a half-written file — the payload lands in a
  same-directory temp file and is published with ``os.replace``, which
  POSIX guarantees to be atomic;
* with ``fsync=True`` (the default) the payload is flushed to stable
  storage *before* the rename, and the directory entry itself is
  fsynced after it, so a crash straddling the write leaves either the
  complete old file or the complete new file — never a truncated one.

``fsync=False`` keeps the atomicity (rename) but skips the durability
barrier; it is for high-rate writers like the sweep memo cache where a
lost-on-power-cut entry is merely a cache miss.

The append-only JSONL journals (sweep manifest, span trace, campaign
checkpoint ledger) share the two pieces that make them survive a
SIGKILL mid-line: :func:`read_jsonl`, which skips whatever is not a
whole JSON object, and :func:`open_append`, which never appends onto a
torn tail.  When and how often a journal flushes or fsyncs stays with
its writer.

:func:`sha256` is the one way the repo hashes: the interpreter's
built-in SHA-256, so that no process maps OpenSSL's libcrypto for a
digest (``docs/observability.md``, *What a process costs*).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Dict, List, Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "open_append",
    "read_jsonl",
    "sha256",
]

PathLike = Union[str, Path]

#: The SHA-256 constructor :func:`sha256` resolved on its first call.
_SHA256: Any = None


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss.

    Best-effort: some platforms/filesystems refuse to open or fsync a
    directory, and losing that barrier only risks the *rename* (not a
    torn file), so errors are swallowed.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes, *, fsync: bool = True) -> Path:
    """Atomically publish ``data`` at ``path``; return the final path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # same-directory temp file: os.replace must not cross filesystems
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass
    if fsync:
        _fsync_directory(path.parent)
    return path


def atomic_write_text(
    path: PathLike,
    text: str,
    *,
    encoding: str = "utf-8",
    fsync: bool = True,
) -> Path:
    """Atomically publish ``text`` at ``path``; return the final path."""
    return atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_write_json(
    path: PathLike,
    payload: Any,
    *,
    indent: int = 2,
    sort_keys: bool = True,
    fsync: bool = True,
) -> Path:
    """Atomically publish ``payload`` as canonical JSON (newline-terminated)."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text, fsync=fsync)


def read_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """The JSON objects of an append-only JSONL journal, in file order.

    Tolerant on purpose: a journal's writer can be killed mid-line, so
    blank lines, lines that do not decode (a torn tail, injected
    garbage) and lines that decode to something other than an object
    are skipped, and a missing file reads as empty.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    entries: List[Dict[str, Any]] = []
    for line in raw.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def open_append(path: PathLike) -> IO[str]:
    """Open a JSONL journal for appending, never onto a torn tail.

    A writer killed mid-line leaves a final line with no newline;
    appending straight after it would glue the next entry onto the
    garbage, and :func:`read_jsonl` would then skip a real entry.  The
    torn line is terminated first (the newline is buffered and reaches
    the file with the caller's first entry); a clean tail gets nothing.
    """
    path = Path(path)
    torn = False
    try:
        with path.open("rb") as tail:
            if tail.seek(0, os.SEEK_END):
                tail.seek(-1, os.SEEK_END)
                torn = tail.read(1) != b"\n"
    except FileNotFoundError:
        pass
    fh = path.open("a", encoding="utf-8")
    if torn:
        fh.write("\n")
    return fh


def sha256(data: bytes = b"") -> Any:
    """A SHA-256 hash object over ``data``, as ``hashlib.sha256`` gives.

    The interpreter's built-in implementation (``_sha2`` on 3.12+,
    ``_sha256`` before) is tried first, the way ``random`` does for
    ``sha512``: ``hashlib`` loads ``_hashlib``, which maps OpenSSL's
    libcrypto (+3.5 MB resident) into every sweep process.  The digests
    are the same bytes; ``hashlib`` is the fallback for a build that
    compiles the built-in module out.
    """
    global _SHA256
    if _SHA256 is None:
        try:
            from _sha2 import sha256 as _SHA256
        except ImportError:
            try:
                from _sha256 import sha256 as _SHA256
            except ImportError:
                from hashlib import sha256 as _SHA256
    return _SHA256(data)
