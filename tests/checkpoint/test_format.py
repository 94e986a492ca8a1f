"""The on-disk checkpoint container: atomicity, integrity, recovery."""

import os

import pytest

from repro.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    inspect_file,
    read_file,
    write_file,
)


def _checkpoint(seq=1, **meta):
    return Checkpoint(
        kind="testbed",
        seq=seq,
        sim_time_us=1.5e6 + seq,
        meta={"num_stations": 3, **meta},
        state={"counters": [seq, 2, 3], "nested": {"pi": 3.14159}},
    )


class TestRoundtrip:
    def test_write_read_preserves_everything(self, tmp_path):
        path = str(tmp_path / "ckpt-00000001.ckpt")
        original = _checkpoint()
        write_file(path, original)
        loaded = read_file(path)
        assert loaded.kind == original.kind
        assert loaded.seq == original.seq
        assert loaded.sim_time_us == original.sim_time_us
        assert loaded.meta == original.meta
        assert loaded.state == original.state

    def test_inspect_reads_header_only(self, tmp_path):
        path = str(tmp_path / "ckpt-00000001.ckpt")
        write_file(path, _checkpoint())
        header = inspect_file(path)
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert header["kind"] == "testbed"
        assert header["seq"] == 1
        assert header["meta"]["num_stations"] == 3
        assert header["payload_bytes"] > 0
        assert len(header["payload_sha256"]) == 64

    def test_no_temp_files_left_behind(self, tmp_path):
        write_file(str(tmp_path / "ckpt-00000001.ckpt"), _checkpoint())
        assert sorted(os.listdir(tmp_path)) == ["ckpt-00000001.ckpt"]


class TestCorruptionDetection:
    def test_flipped_payload_byte_is_detected(self, tmp_path):
        path = str(tmp_path / "ckpt-00000001.ckpt")
        write_file(path, _checkpoint())
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="sha256|checksum"):
            read_file(path)

    def test_truncated_file_is_detected(self, tmp_path):
        path = str(tmp_path / "ckpt-00000001.ckpt")
        write_file(path, _checkpoint())
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            read_file(path)

    def test_foreign_file_is_detected(self, tmp_path):
        path = str(tmp_path / "ckpt-00000001.ckpt")
        open(path, "wb").write(b"not a checkpoint at all\n")
        with pytest.raises(CheckpointError):
            read_file(path)

    def test_empty_file_is_detected(self, tmp_path):
        path = str(tmp_path / "ckpt-00000001.ckpt")
        open(path, "wb").close()
        with pytest.raises(CheckpointError):
            read_file(path)


class TestStore:
    def test_sequences_and_next_seq(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.sequence_numbers() == []
        assert store.next_seq() == 1
        store.write(_checkpoint(seq=1))
        store.write(_checkpoint(seq=2))
        assert store.sequence_numbers() == [1, 2]
        assert store.next_seq() == 3

    def test_latest_valid_prefers_newest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write(_checkpoint(seq=1))
        store.write(_checkpoint(seq=2))
        assert store.latest_valid().seq == 2

    def test_latest_valid_skips_corrupt_newest(self, tmp_path):
        """A crash mid-write falls back to the previous snapshot."""
        store = CheckpointStore(str(tmp_path))
        store.write(_checkpoint(seq=1))
        store.write(_checkpoint(seq=2))
        blob = bytearray(open(store.path_for(2), "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(store.path_for(2), "wb").write(bytes(blob))
        loaded = store.latest_valid()
        assert loaded.seq == 1
        # The corrupt file is evidence: never deleted.
        assert os.path.exists(store.path_for(2))

    def test_latest_valid_empty_store(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).latest_valid() is None

    def test_entries_report_validity(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write(_checkpoint(seq=1))
        store.write(_checkpoint(seq=2))
        open(store.path_for(2), "wb").write(b"garbage")
        rows = store.entries()
        assert [row["seq"] for row in rows] == [1, 2]
        assert rows[0]["valid"] is True
        assert rows[0]["header"]["kind"] == "testbed"
        assert rows[1]["valid"] is False
        assert "error" in rows[1]

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for seq in range(1, 6):
            store.write(_checkpoint(seq=seq))
        removed = store.prune(keep_last=2)
        assert removed == 3
        assert store.sequence_numbers() == [4, 5]


class TestKillHook:
    def test_malformed_kill_spec_raises(self, tmp_path, monkeypatch):
        """A typo in REPRO_CHECKPOINT_KILL fails loudly, not silently."""
        from repro.checkpoint.format import KILL_ENV

        monkeypatch.setenv(KILL_ENV, "two")
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(ValueError, match=KILL_ENV):
            store.write(_checkpoint(seq=1))
