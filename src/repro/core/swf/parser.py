"""Parsing Standard Workload Format files.

The format is line-oriented:

* lines beginning with ``;`` are comments; the leading comment block may
  contain ``;Label: value`` header comments with predefined labels,
* every other non-empty line is a job: whitespace-separated integers, one
  per field, in the standard order, with ``-1`` for unknown values.

The parser is strict by default (non-integer tokens or a wrong field count
raise :class:`SWFParseError` with the offending line number) but can be run
in ``lenient`` mode, in which malformed job lines are collected and skipped —
useful when ingesting historical archive files with known quirks.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from typing import List, Optional, TextIO, Tuple, Union

from repro.core.swf.fields import FIELD_COUNT
from repro.core.swf.header import HeaderEntry, SWFHeader
from repro.core.swf.records import SWFJob
from repro.core.swf.workload import Workload

__all__ = ["SWFParseError", "ParseReport", "parse_swf", "parse_swf_text", "iter_swf_lines"]


class SWFParseError(ValueError):
    """Raised for malformed SWF input in strict mode."""

    def __init__(self, message: str, line_number: Optional[int] = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass
class ParseReport:
    """Summary of a lenient parse: how many lines were kept, skipped, and why."""

    job_lines: int = 0
    comment_lines: int = 0
    blank_lines: int = 0
    skipped: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)


def _split_header_comment(text: str) -> Optional[HeaderEntry]:
    """Interpret a comment line as a ``;Label: value`` header entry, if it is one."""
    body = text.lstrip(";").strip()
    if ":" not in body:
        return None
    label, _, value = body.partition(":")
    label = label.strip()
    if not label or " " in label.strip():
        # Header labels are single words (e.g. MaxNodes, StartTime); a colon
        # inside free prose is not a header entry.
        return None
    return HeaderEntry(label=label, value=value.strip())


def _parse_job_line(text: str, line_number: int) -> SWFJob:
    tokens = text.split()
    if len(tokens) != FIELD_COUNT:
        raise SWFParseError(
            f"expected {FIELD_COUNT} fields, found {len(tokens)}", line_number
        )
    try:
        values = list(map(int, tokens))
    except ValueError:
        values = []
        for token in tokens:
            try:
                values.append(int(token))
            except ValueError:
                # The standard mandates integers; some archive files carry floats
                # (e.g. fractional seconds).  Accept a float token only when it is
                # numeric, truncating toward zero, to stay practical while keeping
                # garbage out.
                try:
                    values.append(int(float(token)))
                except (ValueError, OverflowError) as exc:
                    # OverflowError: 'inf' parses as a float but has no integer.
                    raise SWFParseError(f"non-numeric field value {token!r}", line_number) from exc
    else:
        # Canonical SWF: 18 ints and a positive job number are exactly what
        # SWFJob's validation would accept unchanged, so skip it.
        if values[0] >= 1:
            return SWFJob._from_trusted_fields(values)
    try:
        return SWFJob.from_fields(values)
    except (TypeError, ValueError) as exc:
        raise SWFParseError(str(exc), line_number) from exc


def iter_swf_lines(stream: TextIO):
    """Yield ``(line_number, kind, text)`` with ``kind`` in {'comment', 'blank', 'job'}."""
    for line_number, raw in enumerate(stream, start=1):
        stripped = raw.strip()
        if not stripped:
            yield line_number, "blank", stripped
        elif stripped.startswith(";"):
            yield line_number, "comment", stripped
        else:
            yield line_number, "job", stripped


def parse_swf_stream(
    stream: TextIO,
    name: str = "workload",
    strict: bool = True,
) -> Tuple[Workload, ParseReport]:
    """Parse an open text stream into a :class:`Workload` plus a :class:`ParseReport`."""
    header = SWFHeader()
    jobs: List[SWFJob] = []
    report = ParseReport()
    seen_job = False
    for line_number, kind, text in iter_swf_lines(stream):
        if kind == "blank":
            report.blank_lines += 1
            continue
        if kind == "comment":
            report.comment_lines += 1
            if not seen_job:
                entry = _split_header_comment(text)
                if entry is not None:
                    header.add(entry.label, entry.value)
            continue
        seen_job = True
        try:
            jobs.append(_parse_job_line(text, line_number))
            report.job_lines += 1
        except SWFParseError as exc:
            if strict:
                raise
            report.skipped.append((line_number, str(exc)))
    workload = Workload(jobs=jobs, header=header, name=name)
    return workload, report


def parse_swf_text(
    text: str, name: str = "workload", strict: bool = True
) -> Workload:
    """Parse SWF content given as a string."""
    workload, _ = parse_swf_stream(io.StringIO(text), name=name, strict=strict)
    return workload


def parse_swf(
    path: Union[str, os.PathLike],
    strict: bool = True,
    with_report: bool = False,
):
    """Parse an SWF file from disk.

    Parameters
    ----------
    path:
        File to read.
    strict:
        If true (default) malformed job lines raise :class:`SWFParseError`;
        otherwise they are skipped and recorded in the report.
    with_report:
        If true, return ``(workload, report)`` instead of just the workload.
    """
    path = os.fspath(path)
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="utf-8") as handle:
        workload, report = parse_swf_stream(handle, name=name, strict=strict)
    if with_report:
        return workload, report
    return workload
