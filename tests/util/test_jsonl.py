"""The shared JSONL helpers (one reader to rule the crash journals)."""

import json

import pytest

from repro.util.jsonl import (
    append_jsonl,
    iter_jsonl_strict,
    iter_jsonl_tolerant,
    read_jsonl,
)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines),
                    encoding="utf-8")


class TestStrict:
    def test_reads_every_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        _write_lines(path, ['{"a": 1}', "[2]", '"three"'])
        assert list(iter_jsonl_strict(path)) == [{"a": 1}, [2], "three"]

    def test_raises_on_garbled_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        _write_lines(path, ['{"a": 1}', '{"torn": '])
        with pytest.raises(ValueError):
            list(iter_jsonl_strict(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_jsonl_strict(tmp_path / "absent.jsonl"))


class TestTolerant:
    def test_skips_garbled_and_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        _write_lines(path, ['{"a": 1}', "", "not json", '{"b": 2}'])
        assert list(iter_jsonl_tolerant(path)) == [{"a": 1}, {"b": 2}]

    def test_torn_trailing_line(self, tmp_path):
        # The kill -9 shape: a flushed line, then a partial one with
        # no trailing newline.
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"torn', encoding="utf-8")
        assert list(iter_jsonl_tolerant(path)) == [{"a": 1}, {"b": 2}]


class TestReadJsonl:
    def test_returns_list(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        _write_lines(path, ['{"a": 1}'])
        assert read_jsonl(path) == [{"a": 1}]

    def test_missing_ok(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl", missing_ok=True) == []

    def test_missing_raises_by_default(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_jsonl(tmp_path / "absent.jsonl")


class TestAppend:
    def test_appends_canonical_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        append_jsonl(path, {"b": 2, "a": 1})
        append_jsonl(path, {"c": [3]})
        text = path.read_text(encoding="utf-8")
        assert text == '{"a":1,"b":2}\n{"c":[3]}\n'
        assert read_jsonl(path) == [{"a": 1, "b": 2}, {"c": [3]}]

    def test_append_to_open_handle_flushes(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            append_jsonl(handle, {"a": 1})
            # Flushed immediately: visible to a concurrent reader
            # before the handle closes (the crash-journal property).
            assert read_jsonl(path) == [{"a": 1}]

    def test_round_trip_survives_torn_tail(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        for index in range(3):
            append_jsonl(path, {"index": index})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 3, "torn')
        rows = read_jsonl(path)
        assert rows == [{"index": 0}, {"index": 1}, {"index": 2}]


def test_consumers_share_the_reader(tmp_path):
    """The historical readers route through this module."""
    import inspect

    from repro.obs import analyze, perf

    assert "read_jsonl" in inspect.getsource(perf.read_ledger)
    assert "iter_jsonl_strict" in inspect.getsource(analyze.iter_jsonl)
