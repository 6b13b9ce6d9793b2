"""Smoke tests for the CLI and the ablation studies."""

import os
import subprocess
import sys

import pytest

from repro.experiments import ablations
from repro.experiments.cli import main


class TestAblations:
    def test_line_width_sweep_renders(self):
        text = ablations.line_width_sweep(
            "gzip", line_bytes_options=(32, 128), instructions=8000,
            scale=0.3,
        )
        assert "line bytes" in text
        assert "128" in text

    def test_ftq_depth_sweep_renders(self):
        text = ablations.ftq_depth_sweep(
            "gzip", depths=(1, 4), instructions=8000, scale=0.3,
        )
        assert "FTQ entries" in text

    def test_trace_storage_ablation_renders(self):
        text = ablations.trace_storage_ablation(
            "gzip", instructions=8000, scale=0.3,
        )
        assert "selective" in text

    def test_cascade_ablation_renders(self):
        text = ablations.cascade_ablation(
            "gzip", instructions=8000, scale=0.3,
        )
        assert "cascade" in text


class TestCli:
    def test_table1(self, capsys):
        rc = main(["table1", "--benchmarks", "gzip",
                   "--instructions", "8000", "--scale", "0.3", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_fig9(self, capsys):
        rc = main(["fig9", "--benchmarks", "gzip",
                   "--instructions", "6000", "--scale", "0.3", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


_SMALL = ["--benchmarks", "gzip", "--widths", "2", "--instructions", "2000",
          "--scale", "0.3"]


@pytest.mark.parametrize("argv, env", [
    (["repro.experiments.cli", "fig8", *_SMALL, "--store", "{store}",
      "--store-peers", "x:y"], {}),
    (["repro.experiments.cli", "fig8", *_SMALL, "--cluster", "x:y"], {}),
    (["repro.experiments.cli", "cache", "sync", "x:y", "--store",
      "{store}"], {}),
    (["repro.experiments.cli", "cache", "stats", "--peers", "x:y",
      "--store", "{store}"], {}),
    (["repro.experiments.cli", "cache", "verify", "--peers", "x:y",
      "--store", "{store}"], {}),
    (["repro.serve", "--store", "{store}", "--store-peers", "x:y"], {}),
    (["repro.experiments.cli", "fig8", *_SMALL, "--store", "{store}"],
     {"REPRO_STORE_PEERS": "x:y"}),
], ids=["fig8-store-peers", "fig8-cluster", "cache-sync", "cache-stats",
        "cache-verify", "serve-store-peers", "fig8-env-peers"])
def test_malformed_address_exits_2(argv, env, tmp_path):
    """A malformed daemon address is a usage error: exit 2 with one
    line naming it, before anything runs, and no traceback."""
    import repro

    src = os.path.dirname(os.path.abspath(list(repro.__path__)[0]))
    args = [a.format(store=tmp_path / "store") for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", *args], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src, **env},
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "bad address 'x:y'" in proc.stderr
