"""Signal handling: raise-mode unwinding, flag-mode drain, CLI flush."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.service.signals import (
    SHUTDOWN_SIGNALS,
    ShutdownRequested,
    handle_signals,
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class TestRaiseMode:
    @pytest.mark.parametrize("signum", SHUTDOWN_SIGNALS)
    def test_signal_raises_shutdown_requested(self, signum):
        with pytest.raises(ShutdownRequested) as excinfo:
            with handle_signals(mode="raise"):
                os.kill(os.getpid(), signum)
                time.sleep(5)  # the raise lands before this expires
        assert excinfo.value.signum == signum
        assert excinfo.value.exit_status == 128 + signum

    def test_finally_blocks_run_on_signal(self):
        cleaned = []
        with pytest.raises(ShutdownRequested):
            with handle_signals(mode="raise"):
                try:
                    os.kill(os.getpid(), signal.SIGTERM)
                    time.sleep(5)
                finally:
                    cleaned.append(True)
        assert cleaned == [True]

    def test_lost_raise_resurfaces_when_the_body_ends(self):
        # A raise landing where Python ignores exceptions (an at-fork
        # hook) must not let the command finish as if never signalled.
        with pytest.raises(ShutdownRequested) as excinfo:
            with handle_signals(mode="raise"):
                try:
                    os.kill(os.getpid(), signal.SIGTERM)
                    time.sleep(5)
                except ShutdownRequested:
                    pass
        assert excinfo.value.signum == signal.SIGTERM

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with handle_signals(mode="raise"):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_shutdown_requested_is_not_an_exception_subclass(self):
        # ``except Exception`` must not swallow a shutdown request.
        assert not issubclass(ShutdownRequested, Exception)
        assert issubclass(ShutdownRequested, BaseException)


class TestFlagMode:
    def test_flag_set_without_raising(self):
        with handle_signals(mode="flag") as flag:
            assert not flag.is_set()
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.time() + 2
            while not flag.is_set() and time.time() < deadline:
                time.sleep(0.01)
            assert flag.is_set()
            assert flag.signum == signal.SIGTERM

    def test_noop_off_main_thread(self):
        results = {}

        def worker():
            with handle_signals(mode="flag") as flag:
                results["flag"] = flag

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        # Installing handlers off the main thread is impossible; the
        # context still yields a (never-set) flag instead of crashing.
        assert not results["flag"].is_set()


class TestCliInterruption:
    def test_sigterm_mid_sweep_flushes_telemetry(self, tmp_path):
        """satellite (b): SIGTERM during ``repro-plc sweep`` exits 143
        with spans closed and the trace JSONL flushed and parseable."""
        telemetry = tmp_path / "telemetry"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.tools.cli",
                "sweep",
                "--counts",
                "30",
                "40",
                "--sim-time",
                "2e7",
                "--reps",
                "2",
                "--workers",
                "2",
                "--telemetry-dir",
                str(telemetry),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # Wait for the sweep to actually start writing telemetry so the
        # signal lands mid-run, not during argparse.
        deadline = time.time() + 60
        while time.time() < deadline:
            if (telemetry / "trace.jsonl").exists():
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        assert proc.poll() is None, proc.communicate()[1][-2000:]
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 128 + signal.SIGTERM
        assert "interrupted" in stderr
        trace_lines = (
            (telemetry / "trace.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        records = [json.loads(line) for line in trace_lines]
        assert any(r["event"] == "run_start" for r in records)
        spans = [
            json.loads(line)
            for line in (telemetry / "spans.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        # Every span record is complete (closed), none torn.
        assert spans
        for record in spans:
            assert "span_id" in record and "name" in record
