"""The on-disk checkpoint container and store.

A checkpoint file is::

    REPRO-CKPT\\n
    <one JSON header line>\\n
    <pickle payload bytes>

The header carries the format version, the checkpoint kind
(``"slotsim"`` / ``"testbed"``), a monotone sequence number, the
simulation time, a JSON-able ``meta`` dict (everything needed to
rebuild the simulation's *structure* — the state itself lives in the
payload), the payload length and its sha256.  ``inspect`` parses only
the header; ``read`` additionally verifies length + checksum and
unpickles.  Files are written via write-to-temp + fsync + rename
(:mod:`repro.checkpoint.integrity`), so a torn write is detectable and
never mistaken for a checkpoint.

A :class:`CheckpointStore` is a directory of ``ckpt-<seq>.ckpt`` files.
``latest_valid`` walks them newest-first and returns the first one that
verifies, skipping corrupted or truncated files — so resumption always
lands on the newest checkpoint that survived the crash intact.

Fault hook: if ``REPRO_CHECKPOINT_KILL`` is set to an integer N, the
process is killed (``os._exit``) immediately after it durably writes
checkpoint N; any other non-empty value raises :class:`ValueError`.
The retried task then resumes from N and next writes N + 1, so the
kill fires exactly once without any cross-process claim bookkeeping —
the deterministic crash the kill-mid-run tests and the CI
``checkpoint-smoke`` job rely on.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import re
from typing import Any, Dict, List, Optional

from .integrity import atomic_write_bytes, sha256_hex

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "MAGIC",
    "KILL_ENV",
    "KILL_EXIT_CODE",
    "JOURNAL_FILENAME",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "journal_event",
    "write_file",
    "read_file",
    "inspect_file",
]

CHECKPOINT_FORMAT_VERSION = 1
MAGIC = b"REPRO-CKPT\n"

#: Environment variable holding the checkpoint seq after which the
#: writing process kills itself (crash-injection for resumption tests).
KILL_ENV = "REPRO_CHECKPOINT_KILL"
#: Exit code of the injected post-checkpoint kill.
KILL_EXIT_CODE = 96

_FILE_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")

#: Telemetry journal inside a store directory.  Not matched by
#: ``_FILE_RE``, so store scans ignore it.
JOURNAL_FILENAME = "journal.jsonl"


def journal_event(directory: str, event: str, **fields: Any) -> None:
    """Append one save/resume event to the store's telemetry journal.

    Written only while a telemetry context is active (checked through
    ``sys.modules``, same as :func:`repro.obs.recording.append_jsonl`,
    so telemetry-free checkpointing pays nothing and imports nothing).
    The line flows through ``append_jsonl`` and therefore carries the
    run's ``run_id``/``span_id`` — the join key between checkpoint
    activity and the rest of the run's streams.  Journal failures are
    swallowed: telemetry must never break a checkpoint write.
    """
    import sys

    module = sys.modules.get("repro.telemetry.context")
    if module is None or module.current_ids() is None:
        return
    from ..obs.recording import append_jsonl

    try:
        append_jsonl(
            os.path.join(directory, JOURNAL_FILENAME),
            [{"event": event, **fields}],
        )
    except OSError:
        pass


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, malformed, or fails verification."""


@dataclasses.dataclass
class Checkpoint:
    """One snapshot: JSON-able identity + pickled simulation state."""

    kind: str
    seq: int
    sim_time_us: float
    meta: Dict[str, Any]
    state: Any

    def header(self, payload: bytes) -> Dict[str, Any]:
        return {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "kind": self.kind,
            "seq": self.seq,
            "sim_time_us": self.sim_time_us,
            "meta": self.meta,
            "payload_bytes": len(payload),
            "payload_sha256": sha256_hex(payload),
        }


def write_file(path: str, checkpoint: Checkpoint) -> None:
    """Serialize ``checkpoint`` to ``path`` atomically."""
    payload = pickle.dumps(checkpoint.state, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        checkpoint.header(payload), sort_keys=True, separators=(",", ":")
    )
    atomic_write_bytes(
        path, MAGIC + header.encode("utf-8") + b"\n" + payload
    )


def _split(path: str) -> tuple:
    """Return ``(header_dict, payload_bytes)`` or raise CheckpointError."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic (not a checkpoint file)")
    rest = blob[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(rest[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not an object")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version "
            f"{header.get('format_version')!r}"
        )
    return header, rest[newline + 1:]


def inspect_file(path: str) -> Dict[str, Any]:
    """Parse and return the header without touching the payload."""
    header, _payload = _split(path)
    return header


def read_file(path: str) -> Checkpoint:
    """Fully read, verify and deserialize one checkpoint file."""
    header, payload = _split(path)
    if len(payload) != header.get("payload_bytes"):
        raise CheckpointError(
            f"{path}: payload is {len(payload)} bytes, header says "
            f"{header.get('payload_bytes')} (truncated write?)"
        )
    digest = sha256_hex(payload)
    if digest != header.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload sha256 mismatch")
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # corrupt-but-checksummed cannot happen;
        # an unpicklable payload means a foreign or incompatible writer.
        raise CheckpointError(f"{path}: cannot unpickle payload: {exc}") from exc
    return Checkpoint(
        kind=str(header["kind"]),
        seq=int(header["seq"]),
        sim_time_us=float(header["sim_time_us"]),
        meta=dict(header.get("meta") or {}),
        state=state,
    )


class CheckpointStore:
    """A directory of sequence-numbered checkpoint files."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def __repr__(self) -> str:
        return f"CheckpointStore({self.directory!r})"

    def path_for(self, seq: int) -> str:
        return os.path.join(self.directory, f"ckpt-{seq:08d}.ckpt")

    def sequence_numbers(self) -> List[int]:
        """All on-disk sequence numbers, ascending (validity unchecked)."""
        seqs = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            match = _FILE_RE.match(name)
            if match:
                seqs.append(int(match.group(1)))
        return sorted(seqs)

    def next_seq(self) -> int:
        seqs = self.sequence_numbers()
        return (seqs[-1] + 1) if seqs else 1

    def write(self, checkpoint: Checkpoint) -> str:
        """Durably write ``checkpoint``; returns its path.

        Honors the ``REPRO_CHECKPOINT_KILL`` crash-injection hook
        *after* the rename, so the injected crash always leaves a valid
        newest checkpoint behind.
        """
        path = self.path_for(checkpoint.seq)
        write_file(path, checkpoint)
        journal_event(
            self.directory,
            "checkpoint_save",
            kind=checkpoint.kind,
            seq=checkpoint.seq,
            sim_time_us=checkpoint.sim_time_us,
        )
        kill_after = os.environ.get(KILL_ENV)
        if kill_after:
            try:
                kill_seq = int(kill_after)
            except ValueError:
                raise ValueError(
                    f"{KILL_ENV}={kill_after!r} is not a checkpoint "
                    "sequence number"
                ) from None
            if kill_seq == checkpoint.seq:
                os._exit(KILL_EXIT_CODE)
        return path

    def latest_valid(self) -> Optional[Checkpoint]:
        """The newest checkpoint that verifies, or ``None``.

        Corrupted, truncated or foreign files are skipped (never
        deleted: they are evidence), so a crash mid-write simply falls
        back to the previous snapshot.
        """
        for seq in reversed(self.sequence_numbers()):
            try:
                return read_file(self.path_for(seq))
            except CheckpointError:
                continue
        return None

    def entries(self) -> List[Dict[str, Any]]:
        """Per-file inspection summary (for the CLI and CI artifacts)."""
        rows = []
        for seq in self.sequence_numbers():
            path = self.path_for(seq)
            row: Dict[str, Any] = {
                "seq": seq,
                "path": path,
                "bytes": os.path.getsize(path) if os.path.exists(path) else 0,
            }
            try:
                read_file(path)
                row["valid"] = True
                row["header"] = inspect_file(path)
            except CheckpointError as exc:
                row["valid"] = False
                row["error"] = str(exc)
            rows.append(row)
        return rows

    def prune(self, keep_last: int) -> int:
        """Delete all but the newest ``keep_last`` files; returns count."""
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        seqs = self.sequence_numbers()
        removed = 0
        for seq in seqs[:-keep_last]:
            try:
                os.unlink(self.path_for(seq))
                removed += 1
            except OSError:
                pass
        return removed
