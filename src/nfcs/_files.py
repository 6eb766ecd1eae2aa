"""Atomic file replacement for the result-table writer."""

import contextlib
import os


def write_atomic(path, data: bytes):
    """Write ``data`` to ``path`` through a sibling file renamed over it, so
    readers see either the old file or the complete new one. An ``OSError``
    on that sibling names ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
