"""tools/sweep_digests.py: its table loads, and its golden entry is the golden CSV."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedmar import bench

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("sweep_digests", ROOT / "tools" / "sweep_digests.py")
sweep_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_digests)


@pytest.mark.parametrize("name", list(sweep_digests.SWEEPS))
def test_every_entry_loads_as_a_valid_spec(name):
    assert isinstance(sweep_digests.spec_of(sweep_digests.SWEEPS[name]), bench.ExperimentSpec)


def test_golden_entry_reproduces_the_golden_csv(capsys, monkeypatch):
    golden = (ROOT / "tests" / "data" / "default_sweep.csv").read_bytes()
    monkeypatch.setattr(sweep_digests, "SWEEPS", {"golden": sweep_digests.SWEEPS["golden"]})
    sweep_digests.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"golden csv {hashlib.sha256(golden).hexdigest()}"
    assert [line.split()[:2] for line in lines] == [["golden", "csv"], ["golden", "json"]]


def test_every_sweep_matches_its_committed_digests(capsys):
    # tests/data/sweep_digests.txt is this tool's output; a change that moves
    # any emitted digit of any listed sweep must regenerate it on purpose
    sweep_digests.main()
    assert capsys.readouterr().out == (ROOT / "tests" / "data" / "sweep_digests.txt").read_text()


def test_every_sweep_matches_its_committed_digests_with_simd_dispatch_off():
    # numpy's AVX-512 and AVX2 kernels switched off, so a layout that reaches
    # another SIMD path cannot move an emitted digit of any listed sweep
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3",
        PYTHONPATH=os.pathsep.join(filter(None, paths)),
    )
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True)
    if probe.returncode != 0:
        pytest.skip("numpy does not import with these CPU features off")
    command = [sys.executable, str(ROOT / "tools" / "sweep_digests.py")]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "data" / "sweep_digests.txt").read_text()
