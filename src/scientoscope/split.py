"""Fold a large record CSV file on every usable CPU.

:func:`~scientoscope.ingest.load` imports this module for CSV input
only, so no other run compiles or loads it. Beyond what ``ingest``
imports it needs only ``os`` and ``marshal``, which every interpreter
loads at start-up.

A file is split when it holds at least ``_SPLIT_BYTES`` (1 MiB) per
part, one part per usable CPU (``os.sched_getaffinity``), at least two,
and the process can fork (POSIX) and runs one thread. :func:`_cuts` cuts
it at the first ``\\n`` from each k/N of its size, and a repeated cut
makes no part. This process folds the first part and a forked child
each other, all read by ``os.pread``. A quoted field may hold a ``\\n``,
so each part but the last is read by a strict ``csv.reader``, which
raises at end of data inside a quoted field: a part that ends without
error ends between rows. Each child sends its record count, year counts
and bridge warnings through a pipe (``marshal``), and they are added to
this part's in part order before the year-gap rule runs and the
warnings are sorted, so the result is the serial fold's. When any part
fails (a parse or decode error, a record rule, a cut inside a quoted
field, text after a closing quote, which only a strict reader refuses,
a child that fails or is killed), every child is reaped and
:func:`fold_parts` returns ``None``, and ``load`` reads the whole input
serially, so every message and location is the serial route's. Memory
is O(parts * (years + findings)).
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


def _cuts(source: BinaryIO) -> list[int] | None:
    """Offsets that cut *source*, from its position to its end, into one
    part per usable CPU, each of at least ``_SPLIT_BYTES`` and each but the
    last ending on a ``\\n``, with no repeated cut; ``None`` when that makes
    fewer than two parts or the process cannot fork safely (no fork, or
    another thread)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    try:
        fd = source.fileno()
        start, size = source.tell(), os.fstat(fd).st_size
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no file descriptor (io.BytesIO), or no /proc
        return None
    if threads != 1:
        return None
    parts = min(len(os.sched_getaffinity(0)), (size - start) // _SPLIT_BYTES)
    cuts = [start]
    for k in range(1, parts):
        at = start + (size - start) * k // parts
        while (block := os.pread(fd, 1 << 16, at)) and b"\n" not in block:
            at += len(block)
        cuts.append(at + block.index(b"\n") + 1 if block else size)
    cuts = sorted({*cuts, size})  # a row longer than a part repeats a cut
    return cuts if len(cuts) > 2 else None


class _Part(io.RawIOBase):
    """Bytes *start* to *end* of the file *fd*, read by ``os.pread`` so that
    no two parts share a file offset."""

    def __init__(self, fd: int, start: int, end: int):
        super().__init__()
        self._fd, self._at, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._end - self._at), self._at)
        self._at += len(data)
        buffer[:len(data)] = data
        return len(data)


def fold_parts(source: BinaryIO, config: AnalysisConfig,
               granularity: str | None) -> tuple[ValidationReport, ingest._YearTally] | None:
    """Fold record CSV *source* in the parts :func:`_cuts` gives, the first
    here and each other in a forked child, as the module docstring
    describes; ``None`` when the file is not split or a part fails."""
    cuts = _cuts(source)
    if cuts is None:
        return None
    fd = source.fileno()

    def part(k: int):
        """A csv reader of part *k*, strict unless it is the last, so that a
        part cut inside a quoted field raises at its end."""
        text = io.TextIOWrapper(_Part(fd, cuts[k], cuts[k + 1]),
                                encoding="utf-8" if k else "utf-8-sig", newline="\n")
        return csv.reader(text, strict=cuts[k + 1] < cuts[-1])

    def fold(reader) -> tuple[ValidationReport, ingest._YearTally]:
        return ingest._fold(ingest._csv_rows(reader, header, "records"), "csv", config)

    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    messages: list[bytes] = []
    try:
        reader = part(0)
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
                    report, tally = fold(part(k))
                    if not report.errors:
                        with open(write, "wb") as pipe:
                            pipe.write(marshal.dumps((report.record_count, tally.counts,
                                                      list(map(tuple, tally.warnings)))))
                        code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, read))
        report, tally = fold(reader)
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
