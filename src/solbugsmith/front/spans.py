"""Byte spans with their line endpoints, and the column of an offset."""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
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


def column_of(data: bytes, offset: int) -> int:
    """1-based byte column of ``offset`` within its line."""
    return offset - (data.rfind(b"\n", 0, offset) + 1) + 1
