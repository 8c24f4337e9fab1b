"""Tests for the command-line interface."""

from __future__ import annotations

import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, Tracer, set_metrics, set_tracer

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestCli:
    def test_fig9_prints_table(self, capsys):
        assert main(["fig9", "--scale", "300"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "10G" in out and "80G" in out

    def test_constants(self, capsys):
        assert main(["constants", "--scale", "300"]) == 0
        out = capsys.readouterr().out
        assert "drm_peak" in out
        assert "paper" in out

    def test_fig7_prints_breakdown(self, capsys):
        assert main(["fig7", "--scale", "300"]) == 0
        out = capsys.readouterr().out
        assert "key_generation" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_elle(self, capsys):
        assert main(["elle", "--scale", "500"]) == 0
        out = capsys.readouterr().out
        assert "serializable" in out


class TestFailurePaths:
    """Operational mistakes exit nonzero with one-line diagnoses, never
    tracebacks — main() returns a code instead of letting anything raise."""

    def test_recover_missing_directory_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["--recover", missing]) == 2
        captured = capsys.readouterr()
        assert "does not exist" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_recover_corrupt_directory_exits_1(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        (corrupt / "junk.bin").write_bytes(b"\x00garbage\xff" * 16)
        assert main(["--recover", str(corrupt)]) == 1
        captured = capsys.readouterr()
        assert "recovery from" in captured.out and "failed" in captured.out
        assert "Traceback" not in captured.err + captured.out

    def test_recover_sharded_directory_prints_every_shard(self, tmp_path, capsys):
        """Regression: ``--recover`` always ran the unsharded recovery, so a
        directory written by ``--serve --shards N`` failed with "no valid
        checkpoint" (the parent holds only ``shard-NN/`` and the intent
        journal) while ``--serve --data-dir`` recovered the same directory
        fine."""
        from repro.cli import _DEMO_CONFIG, _demo_transfer
        from repro.core import DurabilityConfig, LitmusConfig, ShardedSession

        directory = str(tmp_path / "sharded")
        # what `--serve --shards 2 --data-dir DIR` builds
        session = ShardedSession.create(
            initial={("acct", i): 100 for i in range(8)},
            config=LitmusConfig(**_DEMO_CONFIG),
            num_shards=2,
            durability=DurabilityConfig(directory=directory),
        )
        for src in range(4):
            session.submit("u", _demo_transfer(), src=src, dst=src + 4, amount=5)
        assert session.flush().accepted
        session.close()

        assert main(["--recover", directory]) == 0
        out = capsys.readouterr().out
        assert "(2 shards)" in out
        for shard in (0, 1):
            assert f"shard {shard} checkpoint" in out
            assert f"shard {shard} digest" in out
        assert "cross-shard:" in out and "0 in doubt" in out

    def test_serve_malformed_address_exits_2(self, capsys):
        assert main(["--serve", "not-an-address"]) == 2
        assert "host:port" in capsys.readouterr().err

    def test_serve_port_in_use_reports_cleanly(self, capsys):
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        try:
            assert main(["--serve", f"127.0.0.1:{port}"]) == 2
        finally:
            holder.close()
        captured = capsys.readouterr()
        assert "cannot listen on" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_connect_unreachable_server_exits_2(self, capsys):
        # Grab a port that is definitely closed right now.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["--connect", f"127.0.0.1:{port}"]) == 2
        captured = capsys.readouterr()
        assert "cannot reach" in captured.err
        assert "Traceback" not in captured.err + captured.out


class TestScrubCli:
    """--scrub: proactive verify-and-repair of a durability directory."""

    def _durable_dir(self, tmp_path):
        # --recover's demo leaves a real durable deployment behind
        # (checkpoints with mirrors, sealed segments) — exactly what an
        # operator would point --scrub at.
        directory = str(tmp_path / "deploy")
        (tmp_path / "deploy").mkdir()
        assert main(["--recover", directory]) == 0
        return directory

    def test_clean_directory_exits_0(self, tmp_path, capsys):
        directory = self._durable_dir(tmp_path)
        capsys.readouterr()
        assert main(["--scrub", directory]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "0 repaired" in out

    def test_rotted_checkpoint_is_healed_exit_0(self, tmp_path, capsys):
        from repro.faults import CheckpointRot

        directory = self._durable_dir(tmp_path)
        CheckpointRot().apply(directory)
        capsys.readouterr()
        assert main(["--scrub", directory]) == 0
        out = capsys.readouterr().out
        assert "healed" in out and "1 repaired" in out
        assert "[repaired] checkpoint" in out
        # The damage is gone, not just survived: a second pass is clean.
        assert main(["--scrub", directory]) == 0
        assert "clean" in capsys.readouterr().out

    def test_audit_only_reports_damage_and_exits_1(self, tmp_path, capsys):
        from repro.faults import CheckpointRot

        directory = self._durable_dir(tmp_path)
        CheckpointRot().apply(directory)
        capsys.readouterr()
        assert main(["--scrub", directory, "--audit-only"]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out and "(audit only)" in out
        assert "[reported] checkpoint" in out
        # Nothing was touched: a repairing pass still finds the rot.
        assert main(["--scrub", directory]) == 0
        assert "1 repaired" in capsys.readouterr().out

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["--scrub", str(tmp_path / "nope")]) == 2
        captured = capsys.readouterr()
        assert "does not exist" in captured.err
        assert "Traceback" not in captured.err + captured.out


def _check_schema(*paths) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks/check_metrics_schema.py")]
        + [str(path) for path in paths],
        capture_output=True,
        text=True,
    )


class TestTraceOut:
    def test_trace_file_is_whole_however_small_the_default_ring(self, tmp_path):
        """--trace-out runs its command under a tracer of its own, so the
        file holds every batch even when the default ring keeps 4 spans."""
        ring = Tracer(maxlen=4)
        previous_tracer = set_tracer(ring)
        previous_metrics = set_metrics(MetricsRegistry())  # this run's batches only
        try:
            (tmp_path / "demo").mkdir()
            trace, metrics = tmp_path / "trace.jsonl", tmp_path / "metrics.jsonl"
            assert main([
                "--recover", str(tmp_path / "demo"),
                "--trace-out", str(trace), "--metrics-out", str(metrics),
            ]) == 0
        finally:
            set_tracer(previous_tracer)
            set_metrics(previous_metrics)
        lines = trace.read_text().splitlines()
        assert len(lines) > ring.maxlen
        proc = _check_schema(metrics, trace)
        assert proc.returncode == 0, proc.stderr

        # A trace file that lost a batch, as a ring export would, fails.
        batch = next(i for i, line in enumerate(lines) if '"name": "batch"' in line)
        cut = tmp_path / "cut-trace.jsonl"
        cut.write_text("\n".join(lines[:batch] + lines[batch + 1:]) + "\n")
        proc = _check_schema(metrics, cut)
        assert proc.returncode == 1
        assert "trace is not whole" in proc.stderr
