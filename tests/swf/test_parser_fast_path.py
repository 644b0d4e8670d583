"""The parser's trusted path must build exactly what the strict path builds.

A job line of 18 integer tokens with a positive job number skips
``SWFJob``'s per-field validation; every other line goes through the strict
path (``SWFJob.from_fields``) unchanged.  These tests hold the two paths
equal on random canonical lines and pin the errors and truncations of the
lines that must not take the shortcut.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.swf import SWFJob, SWFParseError, parse_swf_text
from repro.core.swf.fields import FIELD_COUNT
from repro.core.swf.parser import _parse_job_line, parse_swf_stream

_INTS = st.integers(min_value=-(10**12), max_value=10**12)
_TAIL = st.lists(_INTS, min_size=FIELD_COUNT - 1, max_size=FIELD_COUNT - 1)


def _line(values) -> str:
    return " ".join(str(v) for v in values)


@given(number=st.integers(min_value=1, max_value=10**12), tail=_TAIL)
@settings(max_examples=300, deadline=None)
def test_trusted_parse_equals_strict_parse(number, tail):
    text = _line([number] + tail)
    trusted = _parse_job_line(text, 1)
    strict = SWFJob.from_fields(int(token) for token in text.split())
    assert trusted == strict
    assert hash(trusted) == hash(strict)
    assert trusted.to_fields() == strict.to_fields() == [number] + tail
    assert all(type(v) is int for v in trusted.to_fields())


@given(number=st.integers(min_value=-(10**6), max_value=0), tail=_TAIL)
@settings(max_examples=50, deadline=None)
def test_non_positive_job_number_still_rejected(number, tail):
    with pytest.raises(SWFParseError, match=rf"^line 4: job_number must be >= 1, got {number}$"):
        _parse_job_line(_line([number] + tail), 4)


@pytest.mark.parametrize("fields", [FIELD_COUNT - 1, FIELD_COUNT + 1])
def test_wrong_field_count_still_rejected(fields):
    text = _line([1] * fields)
    with pytest.raises(SWFParseError, match=rf"^line 3: expected 18 fields, found {fields}$"):
        _parse_job_line(text, 3)


@pytest.mark.parametrize("token, value", [("3.0", 3), ("3.5", 3), ("-3.5", -3), ("1e3", 1000)])
def test_float_tokens_still_truncate(token, value):
    job = _parse_job_line(_line([1, 0, 0, token] + [-1] * 14), 1)
    assert job.run_time == value
    assert job == SWFJob.from_fields([1, 0, 0, value] + [-1] * 14)


def test_float_job_number_still_truncates_then_validates():
    assert _parse_job_line(_line(["2.9"] + [-1] * 17), 1).job_number == 2
    with pytest.raises(SWFParseError, match=r"^line 1: job_number must be >= 1, got 0$"):
        _parse_job_line(_line(["0.5"] + [-1] * 17), 1)


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity"])
def test_infinite_token_is_a_parse_error(token):
    text = _line([1, 0, 0, 100, 8] + [-1] * 13) + "\n" + _line([2, 0, 0, token, 8] + [-1] * 13)
    with pytest.raises(SWFParseError, match=rf"^line 2: non-numeric field value '{token}'$") as exc:
        parse_swf_text(text)
    assert exc.value.line_number == 2


def test_lenient_mode_skips_an_infinite_token():
    text = _line([1, 0, 0, 100, 8] + [-1] * 13) + "\n" + _line([2, 0, 0, "inf", 8] + [-1] * 13)
    workload, report = parse_swf_stream(io.StringIO(text), strict=False)
    assert [job.job_number for job in workload] == [1]
    assert report.job_lines == 1
    assert report.skipped == [(2, "line 2: non-numeric field value 'inf'")]


def test_trusted_job_behaves_like_a_validated_one():
    job = _parse_job_line("7 10 5 100 8 90 -1 8 200 -1 1 3 1 1 0 1 -1 -1", 1)
    assert isinstance(job, SWFJob)
    assert job.start_time == 15 and job.end_time == 115
    assert job.is_interactive and job.is_completed
    assert job.replace(run_time=50).run_time == 50
    with pytest.raises(AttributeError):
        job.run_time = 1  # still frozen
