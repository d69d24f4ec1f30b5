"""CLI resilience: ``--checkpoint``/``--resume`` flags, error handling,
and trace flushing when a traced run dies mid-flight.

The subprocess test mirrors the CI ``resilience-smoke`` job: start a
checkpointed run, SIGKILL it once the first snapshot lands, resume with
``--resume``, and require the final model to match an uninterrupted
baseline.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.resilience import FaultPlan, inject_faults, load_checkpoint
from repro.tensor.generate import planted_low_rank
from repro.tensor.io import save_tns


@pytest.fixture()
def tns_file(tmp_path):
    tensor, _ = planted_low_rank((10, 8, 6), 2, 300, seed=1)
    path = tmp_path / "data.tns"
    save_tns(tensor, path)
    return str(path)


class TestErrorHandling:
    def test_failing_command_exits_1_with_message(self, tns_file, tmp_path, capsys):
        # resuming from a nonexistent checkpoint fails inside the command
        rc = main(["cpd", tns_file, "-r", "2", "-i", "2",
                   "--resume", str(tmp_path / "missing.npz")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_traced_failing_run_still_flushes_valid_trace(self, tns_file, tmp_path, capsys):
        """A run that dies after tracing starts must leave a loadable,
        truncated trace file behind for post-mortem inspection."""
        trace = tmp_path / "trace.json"
        plan = FaultPlan(targets=[("tasking.coforall", 2)])
        with inject_faults(plan):  # no retry policy -> the fault kills the run
            rc = main(["cpd", tns_file, "-r", "2", "-i", "3", "--tolerance", "0",
                       "--tasks", "3", "--trace", str(trace)])
        assert rc == 1
        assert plan.faults_injected == 1
        assert "error: injected fault" in capsys.readouterr().err
        payload = json.loads(trace.read_text())  # valid JSON despite the crash
        events = payload["traceEvents"]
        assert any(e.get("name") == "cp_als" for e in events)
        counters = [e for e in events if e.get("name") == "fault.injected"]
        assert counters, "the injected fault must appear in the flushed trace"

    def test_bad_arguments_still_raise_system_exit(self, tns_file):
        with pytest.raises(SystemExit):  # argparse errors are not swallowed
            main(["cpd", tns_file, "--no-such-flag"])


class TestDistributedFlags:
    """``repro cpd`` takes the distributed route on ``--locales`` != 1 or
    ``--transport proc``; a flag that route would not read exits 1 and
    names the flag, before any tensor is loaded or worker spawned."""

    @pytest.mark.parametrize("flags, named", [
        (["--locales", "0"], "--locales"),
        (["--locales", "2", "--allocation", "all"], "--allocation"),
        (["--locales", "2", "--variant", "pointer"], "--variant"),
        (["--locales", "2", "--tasks", "2"], "--tasks"),
        (["--transport", "proc", "--allocation", "one"], "--allocation"),
        (["--transport", "proc", "--checkpoint", "ck.npz"], "--checkpoint"),
        (["--locales", "2", "--resume", "ck.npz"], "--resume"),
        (["--transport", "proc", "--sanitize"], "--sanitize"),
    ], ids=["locales-0", "allocation", "variant", "tasks", "proc-allocation",
            "proc-checkpoint", "resume", "proc-sanitize"])
    def test_dropped_flag_exits_1(self, tns_file, tmp_path, capsys, flags, named):
        flags = [str(tmp_path / f) if f.endswith(".npz") else f for f in flags]
        assert main(["cpd", tns_file, "-r", "2", "-i", "2", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "ck.npz").exists()

    def test_distributed_run_matches_driver(self, tns_file, capsys):
        from repro.distributed import distributed_cp_als
        from repro.tensor.io import load_tns

        assert main(["cpd", tns_file, "-r", "2", "-i", "3", "--tolerance", "0",
                     "--locales", "2"]) == 0
        out = capsys.readouterr().out
        ref = distributed_cp_als(load_tns(tns_file), 2, nlocales=2,
                                 max_iterations=3, tolerance=0, seed=0)
        assert f"fit = {ref.fit:.6f} after 3 iterations" in out
        assert "transport: sim" in out
        assert (f"comm: fold {ref.comm.fold_rows} rows / "
                f"{ref.comm.fold_messages} msgs") in out

    def test_serial_route_keeps_serial_flags(self, tns_file, capsys):
        assert main(["cpd", tns_file, "-r", "2", "-i", "2", "--locales", "1",
                     "--allocation", "all", "--variant", "pointer",
                     "--tasks", "2"]) == 0
        assert "transport:" not in capsys.readouterr().out


class TestCheckpointFlags:
    def test_cpd_checkpoint_and_resume_match_baseline(self, tns_file, tmp_path, capsys):
        base = tmp_path / "base.npz"
        assert main(["cpd", tns_file, "-r", "2", "-i", "6", "--tolerance", "0",
                     "-o", str(base)]) == 0

        ck = tmp_path / "ck.npz"
        partial = tmp_path / "partial.npz"
        # "killed" run: the iteration cap stands in for the kill signal
        assert main(["cpd", tns_file, "-r", "2", "-i", "3", "--tolerance", "0",
                     "--checkpoint", str(ck), "-o", str(partial)]) == 0
        assert load_checkpoint(ck, expect_kind="cp_als").iteration == 3

        resumed = tmp_path / "resumed.npz"
        assert main(["cpd", tns_file, "-r", "2", "-i", "6", "--tolerance", "0",
                     "--resume", str(ck), "-o", str(resumed)]) == 0
        capsys.readouterr()

        with np.load(base) as a, np.load(resumed) as b:
            assert np.allclose(a["weights"], b["weights"])
            for m in range(3):
                assert np.allclose(a[f"factor{m}"], b[f"factor{m}"])

    def test_checkpoint_every_flag(self, tns_file, tmp_path, capsys):
        ck = tmp_path / "ck.npz"
        assert main(["cpd", tns_file, "-r", "2", "-i", "5", "--tolerance", "0",
                     "--checkpoint", str(ck), "--checkpoint-every", "2"]) == 0
        assert load_checkpoint(ck).iteration == 4
        capsys.readouterr()

    def test_checkpoint_with_locales_exits_1(self, tns_file, tmp_path, capsys):
        """checkpoint × distributed is a clear error, exit code 1, and
        writes no snapshot."""
        ck = tmp_path / "ck.npz"
        assert main(["cpd", tns_file, "-r", "2", "-i", "2", "--locales", "2",
                     "--checkpoint", str(ck)]) == 1
        err = capsys.readouterr().err
        assert "not" in err and "supported" in err
        assert not ck.exists()

    def test_tucker_checkpoint_and_resume(self, tns_file, tmp_path, capsys):
        ck = tmp_path / "ck.npz"
        base = tmp_path / "base.npz"
        resumed = tmp_path / "resumed.npz"
        assert main(["tucker", tns_file, "-r", "2", "-i", "4", "--tolerance", "0",
                     "-o", str(base)]) == 0
        assert main(["tucker", tns_file, "-r", "2", "-i", "2", "--tolerance", "0",
                     "--checkpoint", str(ck)]) == 0
        assert main(["tucker", tns_file, "-r", "2", "-i", "4", "--tolerance", "0",
                     "--resume", str(ck), "-o", str(resumed)]) == 0
        capsys.readouterr()
        with np.load(base) as a, np.load(resumed) as b:
            assert np.allclose(a["core"], b["core"])

    def test_complete_checkpoint_and_resume(self, tns_file, tmp_path, capsys):
        ck = tmp_path / "ck.npz"
        base = tmp_path / "base.npz"
        resumed = tmp_path / "resumed.npz"
        common = ["complete", tns_file, "-r", "2", "-a", "sgd", "--seed", "3"]
        assert main([*common, "-e", "6", "-o", str(base)]) == 0
        assert main([*common, "-e", "3", "--checkpoint", str(ck)]) == 0
        assert main([*common, "-e", "6", "--resume", str(ck),
                     "-o", str(resumed)]) == 0
        capsys.readouterr()
        with np.load(base) as a, np.load(resumed) as b:
            for m in range(3):
                assert np.allclose(a[f"factor{m}"], b[f"factor{m}"])


class TestKillAndResumeSubprocess:
    def test_sigkill_mid_run_then_resume_matches_baseline(self, tmp_path):
        """The CI smoke test, in miniature: SIGKILL a checkpointed run,
        resume from the surviving snapshot, compare against a clean run."""
        tensor, _ = planted_low_rank((25, 20, 15), 3, 4000, seed=2)
        tns = tmp_path / "kill.tns"
        save_tns(tensor, tns)

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run(extra):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", "cpd", str(tns),
                 "-r", "3", "-i", "12", "--tolerance", "0", *extra],
                env=env, capture_output=True, text=True, timeout=300,
            )

        base = tmp_path / "base.npz"
        assert run(["-o", str(base)]).returncode == 0

        ck = tmp_path / "ck.npz"
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cpd", str(tns),
             "-r", "3", "-i", "12", "--tolerance", "0",
             "--checkpoint", str(ck)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not ck.exists() and victim.poll() is None:
                if time.monotonic() > deadline:
                    pytest.fail("checkpoint never appeared")
                time.sleep(0.02)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                victim.kill()

        # the snapshot that survived the kill must be complete and loadable
        ck_state = load_checkpoint(ck, expect_kind="cp_als")
        assert 1 <= ck_state.iteration <= 12

        resumed = tmp_path / "resumed.npz"
        done = run(["--resume", str(ck), "-o", str(resumed)])
        assert done.returncode == 0, done.stderr

        with np.load(base) as a, np.load(resumed) as b:
            assert np.allclose(a["weights"], b["weights"])
            for m in range(3):
                assert np.allclose(a[f"factor{m}"], b[f"factor{m}"])
