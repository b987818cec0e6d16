"""Half-written telemetry streams fail loudly and stay line-aligned.

A worker killed mid-write leaves a stream whose last line is cut: mid
record, or at a record boundary without its newline.  Reading such a
stream must either load every complete record or raise a
:class:`SchemaError` that names ``path:line``; merging it into a parent
stream must not glue the parent's next record onto the cut line.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry import JsonlRecorder, SchemaError, load_stream

RECORD = json.dumps({"kind": "note", "message": "complete"})


class TestLoadStream:
    def test_cut_mid_record_names_the_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(RECORD + "\n" + RECORD[:15], encoding="utf-8")
        with pytest.raises(SchemaError, match=rf"{path.name}:2: invalid JSON"):
            load_stream(path)

    def test_cut_at_a_record_boundary_loads_every_record(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(RECORD + "\n" + RECORD, encoding="utf-8")
        assert [r["message"] for r in load_stream(path)] == ["complete"] * 2

    def test_garbage_bytes_name_the_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(RECORD.encode() + b"\n\xff\xfe\x80garbage\n")
        with pytest.raises(SchemaError, match=rf"{path.name}:2: not UTF-8"):
            load_stream(path)

    def test_utf8_payloads_still_load(self, tmp_path):
        path = tmp_path / "m.jsonl"
        record = {"kind": "note", "message": "Δ_G ≥ 3"}
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_stream(path) == [record]


class TestAbsorbUnterminatedChild:
    def _cut_child(self, recorder, tail):
        child = recorder.for_task("seed 0")
        child.emit("note", message="child")
        child.close()
        with open(child.path, "a", encoding="utf-8") as fh:
            fh.write(tail)
        return child

    def test_parent_record_after_a_cut_child_keeps_its_own_line(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        recorder.absorb(self._cut_child(recorder, RECORD[:15]))
        recorder.emit("note", message="parent")
        recorder.close()
        lines = recorder.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert json.loads(lines[2])["message"] == "parent"
        # The cut line itself fails loudly, by number.
        with pytest.raises(SchemaError, match=r"metrics.jsonl:2: invalid JSON"):
            load_stream(recorder.path)

    def test_child_cut_at_a_boundary_merges_cleanly(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        recorder.absorb(self._cut_child(recorder, RECORD))
        recorder.emit("note", message="parent")
        recorder.close()
        messages = [r["message"] for r in load_stream(recorder.path)]
        assert messages == ["child", "complete", "parent"]
