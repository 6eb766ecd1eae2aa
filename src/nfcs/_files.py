"""Atomic file replacement, shared by the result-table and dictionary writers."""

import contextlib
import os


def write_atomic(path, data: bytes):
    """Write ``data`` to ``path`` through a sibling file renamed over it, so
    readers see either the old file or the complete new one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
