"""Byte spans and the line map used to translate offsets to line numbers."""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..errors import OutOfRange


@dataclass(frozen=True)
class Span:
    """Half-open byte range [start, end) with 1-based line endpoints."""

    start: int
    end: int
    start_line: int
    end_line: int

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "startLine": self.start_line,
            "endLine": self.end_line,
        }


class LineIndex:
    """Offsets of line starts for one source buffer (byte offsets)."""

    def __init__(self, data: bytes) -> None:
        self.length = len(data)
        starts = [0]
        pos = data.find(b"\n")
        while pos != -1:
            starts.append(pos + 1)
            pos = data.find(b"\n", pos + 1)
        self.starts = starts

    def line_of(self, offset: int) -> int:
        """1-based line containing ``offset``; ``offset == length`` maps to the last line."""
        if offset < 0 or offset > self.length:
            raise OutOfRange(f"offset {offset} outside [0, {self.length}]")
        return bisect.bisect_right(self.starts, offset)


def column_of(data: bytes, offset: int) -> int:
    """1-based byte column of ``offset`` within its line."""
    return offset - (data.rfind(b"\n", 0, offset) + 1) + 1
