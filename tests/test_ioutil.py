"""The shared atomic-write and JSONL-journal helpers (repro.ioutil)."""

import json
import os

import pytest

from repro.ioutil import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    open_append,
    read_jsonl,
)


class TestAtomicWrite:
    def test_bytes_round_trip(self, tmp_path):
        path = tmp_path / "payload.bin"
        returned = atomic_write_bytes(path, b"\x00\x01\x02")
        assert returned == path
        assert path.read_bytes() == b"\x00\x01\x02"

    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "note.txt"
        atomic_write_text(path, "héllo\n")
        assert path.read_text(encoding="utf-8") == "héllo\n"

    def test_json_is_canonical_and_newline_terminated(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"b": 2, "a": 1})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1, "b": 2}
        # sorted keys: byte-stable across runs regardless of insertion order
        assert text == json.dumps({"a": 1, "b": 2}, indent=2, sort_keys=True) + "\n"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "state.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.txt"
        atomic_write_text(path, "deep")
        assert path.read_text() == "deep"

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "clean.txt"
        atomic_write_text(path, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["clean.txt"]

    def test_failed_write_leaves_original_intact(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "precious.txt"
        atomic_write_text(path, "original")

        def exploding_replace(src, dst):
            raise OSError("simulated crash at publish time")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(path, "half-written")
        monkeypatch.undo()
        # the original survives untouched and the temp file is cleaned up
        assert path.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["precious.txt"]

    def test_fsync_false_still_atomic(self, tmp_path):
        path = tmp_path / "fast.bin"
        atomic_write_bytes(path, b"payload", fsync=False)
        assert path.read_bytes() == b"payload"
        assert [p.name for p in tmp_path.iterdir()] == ["fast.bin"]


class TestJsonlJournal:
    def test_reader_keeps_only_whole_json_objects(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(
            b'{"a": 1}\n'
            b'\n'                 # blank
            b'   \n'
            b'{"b": \n'           # torn, later terminated
            b'7\n'                # valid JSON, not an object
            b'[1, 2]\n'
            b'\xff\xfe garbage\n'  # not even UTF-8
            b'{"c": 3}\n'
            b'{"d": '             # torn tail, unterminated
        )
        assert read_jsonl(path) == [{"a": 1}, {"c": 3}]

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []

    def test_append_after_torn_tail_starts_a_new_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"i": 0}\n{"i": 1, "sta')
        with open_append(path) as fh:
            fh.write('{"i": 2}\n')
        assert path.read_text() == '{"i": 0}\n{"i": 1, "sta\n{"i": 2}\n'
        assert read_jsonl(path) == [{"i": 0}, {"i": 2}]

    @pytest.mark.parametrize("before", ["", '{"i": 0}\n'])
    def test_append_after_clean_tail_adds_nothing(self, tmp_path, before):
        path = tmp_path / "j.jsonl"
        path.write_text(before)
        with open_append(path) as fh:
            fh.write('{"i": 1}\n')
        assert path.read_text() == before + '{"i": 1}\n'

    def test_append_creates_a_missing_file(self, tmp_path):
        path = tmp_path / "new.jsonl"
        with open_append(path) as fh:
            fh.write('{"i": 0}\n')
        assert path.read_text() == '{"i": 0}\n'


class TestAdoption:
    """The repo's derived-artifact writers all route through ioutil."""

    def test_resultset_exports_are_atomic(self, tmp_path, monkeypatch):
        from repro.api import resultset as resultset_mod
        from repro.api.resultset import ResultSet
        from repro.harness.runner import RunRecord

        calls = []
        real = resultset_mod.atomic_write_text

        def spy(path, text, **kw):
            calls.append(str(path))
            return real(path, text, **kw)

        monkeypatch.setattr(resultset_mod, "atomic_write_text", spy)
        results = ResultSet([
            RunRecord(scenario="s", params={"seed": 0}, result={"v": 1.0}),
        ])
        results.to_csv(tmp_path / "out.csv")
        results.to_json(tmp_path / "out.json")
        assert len(calls) == 2
        assert (tmp_path / "out.csv").exists()
        assert json.loads((tmp_path / "out.json").read_text())
