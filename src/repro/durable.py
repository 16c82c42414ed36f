"""One durable write for every artifact a crash must not tear (run
manifests, bench records, checkpoints, stall diagnoses): a reader sees
the old file or the new one, never half of either, and a failed write
leaves no sibling behind."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["durable_write"]


def durable_write(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text as UTF-8): write a pid-unique
    sibling, flush and fsync it, rename it over ``path``, then fsync the
    directory so the rename itself is on disk."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    with contextlib.suppress(OSError):  # a fs without dir opens or dir fsync
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
