"""The one atomic file writer every artifact and cache record goes through.

A leaf module (standard library only), so the engine's import of
:mod:`repro.telemetry` can reach it without an import cycle.
"""

from __future__ import annotations

import os
import tempfile

#: The process umask, read once: ``mkstemp`` creates its file 0600, and
#: the written file gets the mode a plain ``open()`` would give it.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write_text(path, text: str):
    """Write ``text`` to ``path`` via a temp file + ``os.replace``.

    A reader sees the old file or the whole new one, never a truncated
    one; on any failure the temp file is removed.  Returns ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
