"""The result-table writer: atomic replacement of a regular file, in-place writes to anything else."""

import contextlib
import os
import stat


def write_atomic(path, data: bytes):
    """Write ``data`` to ``path``.

    A regular file, or a path that does not exist yet, is replaced through a
    sibling file renamed over it, so readers see either the old file or the
    complete new one. Anything else, such as a symbolic link, a FIFO or a
    device, is opened and written in place: a rename would replace the link
    or the node itself instead of writing to what it stands for. An
    ``OSError`` on the sibling names ``path``.
    """
    try:
        replace = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        replace = True
    if not replace:
        with open(path, "wb") as fh:
            fh.write(data)
        return
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
