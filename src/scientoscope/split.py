"""Fold a large record CSV file on every usable CPU.

:func:`~scientoscope.ingest.load` imports this module for CSV input
only, so no other run compiles or loads it. :func:`fold_parts` cuts the
file at row boundaries, folds the first part in this process and each
other in a forked child, and adds the children's counts to its own, as
``load``'s docstring describes. Beyond what ``ingest`` imports it needs
only ``os`` and ``marshal``, which every interpreter loads at start-up.
It falls back by returning ``None``, and ``load`` then reads the whole
input serially.
"""

from __future__ import annotations

import csv
import io
import marshal
import os
from typing import BinaryIO

from . import ingest
from .config import AnalysisConfig
from .model import ParseError, ValidationReport


#: Fewest bytes each part of a split record CSV holds, so a file under
#: twice this is folded whole: a fork and a merge would cost more than
#: they save.
_SPLIT_BYTES = 1 << 20
#: The row each part but the last ends with, on a line of its own.
_SPLIT_ROW = ["\x1escientoscope-split\x1e"]
_SPLIT_LINE = f"{_SPLIT_ROW[0]}\n".encode()


def _cuts(source: BinaryIO) -> list[int] | None:
    """Offsets that cut *source*, from its position to its end, into one
    part per usable CPU, each of at least ``_SPLIT_BYTES`` and each but the
    last ending on a ``\\n``; ``None`` when that makes fewer than two parts
    or the process cannot fork safely (no fork, or another thread)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    try:
        fd = source.fileno()
        start, size = source.tell(), os.fstat(fd).st_size
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no file descriptor (io.BytesIO), or no /proc
        return None
    parts = min(len(os.sched_getaffinity(0)), (size - start) // _SPLIT_BYTES)
    if parts < 2 or threads != 1:
        return None
    cuts = [start]
    for k in range(1, parts):
        at = start + (size - start) * k // parts
        while (block := os.pread(fd, 1 << 16, at)) and b"\n" not in block:
            at += len(block)
        cuts.append(at + block.index(b"\n") + 1 if block else size)
    return [*cuts, size]


class _Part(io.RawIOBase):
    """Bytes *start* to *end* of the file *fd*, read by ``os.pread`` so that
    no two parts share a file offset, then the bytes *tail*."""

    def __init__(self, fd: int, start: int, end: int, tail: bytes):
        super().__init__()
        self._fd, self._at, self._end, self._tail = fd, start, end, tail

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._end - self._at), self._at)
        if data:
            self._at += len(data)
        else:
            data, self._tail = self._tail, b""
        buffer[:len(data)] = data
        return len(data)


def fold_parts(source: BinaryIO, config: AnalysisConfig,
               granularity: str | None) -> tuple[ValidationReport, ingest._YearTally] | None:
    """Fold record CSV *source* in the parts :func:`_cuts` gives, the first
    here and each other in a forked child, as
    :func:`~scientoscope.ingest.load` describes; ``None`` when the file is
    not split or a part fails."""
    cuts = _cuts(source)
    if cuts is None:
        return None
    fd = source.fileno()

    def part(k: int) -> tuple:
        """A csv reader of part *k* and the row that must end it, if any."""
        tail = _SPLIT_LINE if cuts[k + 1] < cuts[-1] else b""
        text = io.TextIOWrapper(_Part(fd, cuts[k], cuts[k + 1], tail),
                                encoding="utf-8" if k else "utf-8-sig", newline="\n")
        return csv.reader(text), _SPLIT_ROW if tail else None

    def fold(reader, last: list | None) -> tuple[ValidationReport, ingest._YearTally]:
        return ingest._fold(ingest._csv_rows(reader, header, "records", last), "csv", config)

    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    messages: list[bytes] = []
    try:
        reader, last = part(0)
        header = ingest._csv_header(reader)
        if granularity is None:
            granularity = ingest._granularity(header)
        if granularity != "records":
            return None
        for k in range(1, len(cuts) - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: send the tally of part k and exit, never print
                code = 1
                try:
                    os.close(read)
                    report, tally = fold(*part(k))
                    if not report.errors:
                        with open(write, "wb") as pipe:
                            pipe.write(marshal.dumps((report.record_count, tally.counts,
                                                      list(map(tuple, tally.warnings)))))
                        code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, read))
        report, tally = fold(reader, last)
        if report.errors:
            return None
        messages = [open(read, "rb", buffering=0, closefd=False).readall()
                    for _, read in children]
    except (ParseError, UnicodeDecodeError, OSError):
        return None
    finally:
        statuses = []
        for pid, read in children:
            if len(messages) < len(children):  # this part raised or failed: stop the rest
                os.kill(pid, 9)  # SIGKILL
            statuses.append(os.waitpid(pid, 0)[1])
            os.close(read)
    if any(statuses):
        return None
    for message in messages:
        try:
            count, counts, warnings = marshal.loads(message)
        except (EOFError, ValueError, TypeError):  # a short message
            return None
        report.record_count += count
        tally.merge(counts, warnings)
    return report, tally
