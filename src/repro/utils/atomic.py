"""Durable, atomic file replacement: the one temp-and-rename writer.

Every file the repo persists goes through :func:`write_text_atomic`,
so a crash mid-write never leaves a torn file where a reader expects a
complete one. It never sweeps stale temps — other writers (cache shard
workers sharing one directory) may own live ones; callers that need a
sweep run their own.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

#: Suffix of every temp file :func:`write_text_atomic` creates.
TMP_SUFFIX = ".tmp"


def write_text_atomic(path: "str | Path", text: str, *,
                      keep_generation: bool = False) -> Path:
    """Durably replace ``path`` with ``text`` (UTF-8); returns the path.

    The text goes to a unique ``.<name>.<random>.tmp`` in the same
    directory (created on demand), which is fsynced, optionally
    preceded by renaming the old file to ``<name>.bak``
    (``keep_generation``), swapped in with ``os.replace`` and made
    durable with a directory fsync. Any failure, ``KeyboardInterrupt``
    included, unlinks the temp.
    """
    path = Path(path)
    directory = path.parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.",
                                    suffix=TMP_SUFFIX, dir=directory)
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if keep_generation and path.exists():
            os.replace(path, path.with_name(path.name + ".bak"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path
