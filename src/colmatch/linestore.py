"""Files that survive a crash mid-write.

A LineStore appends one record per line, the line and its newline in one
write.  A crash mid-append can leave bytes after the last newline, but no
complete line that is wrong: those bytes are ignored on read and cut off
before the next append, and a complete line that does not parse raises,
naming the path and the line, wherever it is.  A leading UTF-8 byte-order
mark is dropped.  replace_atomically writes a file whole or not at all.
"""

from __future__ import annotations

import codecs
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


@contextmanager
def replace_atomically(path, mode: str = "w", **open_kwargs):
    """A temporary file beside `path` that replaces it when the block exits without an exception."""
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, mode, **open_kwargs) as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


class LineStore:
    """Records parsed from `path` by `parse`, which raises ValueError on a bad line."""

    def __init__(self, path, parse: Callable[[str], object]) -> None:
        self.path = Path(path)
        self._parse = parse
        self._torn = None  # (offset of the ignored bytes after the last newline, file size when read)

    def read(self) -> list:
        """Parse every complete line, each without its newline; blank lines are skipped."""
        self._torn = None
        if not self.path.exists():
            return []
        data = self.path.read_bytes()
        end = data.rfind(b"\n") + 1  # bytes after the last newline are a torn write
        start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
        records = []
        for i, line in enumerate(data[start:end].splitlines()):
            if not line.strip():
                continue
            try:
                records.append(self._parse(line.decode("utf-8")))
            except ValueError as exc:  # JSONDecodeError, binascii.Error, UnicodeDecodeError
                if isinstance(exc, UnicodeDecodeError):  # its text comes from its fields, not its args
                    exc = ValueError(f"not valid UTF-8 ({exc.reason})")
                exc.args = (f"{self.path}:{i + 1}: {exc}",)  # the place prepended, the type kept
                raise exc from None
        if end < len(data):
            self._torn = (end, len(data))
        return records

    def append(self, line: str) -> None:
        """Append one record line (no newline), first cutting off a torn tail read()."""
        if self._torn is not None:
            end, size = self._torn
            # another writer may have cut the tail and appended already
            if self.path.stat().st_size == size:
                os.truncate(self.path, end)
            self._torn = None
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
