"""The scripts that forward flags to the CLI, run as a user runs them: in a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import melodykit

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, owned", [("layer_sweep.py", ["--variants", "control"]), ("run_pipeline.py", [])],
                         ids=["layer_sweep", "run_pipeline"])
def test_forwarding_script_refuses_a_prefix_of_its_own_flag(tmp_path, script, owned):
    # --work is a prefix of the script's --workdir.  Read as --workdir it
    # would write under w2; forwarded, the CLI refuses it as unknown.  The
    # small settings keep a run that misreads it short.  The script checks
    # the forwarded flags before its first step, so nothing is written, not
    # even the default work directory's corpus.
    src = str(Path(melodykit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(SCRIPTS / script), "--work", str(tmp_path / "w2"), *owned,
            "--max-iterations", "1", "--hidden-size", "4", "--embedding-dim", "2"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert not (tmp_path / "w2").exists()
    assert not list(tmp_path.rglob("corpus_*.json"))
    assert not (tmp_path / "runs").exists()
    [error] = [json.loads(line) for line in proc.stderr.splitlines()]
    assert error["error"] == "ValueError"
    assert "unrecognized arguments: --work" in error["message"]
