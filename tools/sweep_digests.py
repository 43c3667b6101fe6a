"""Print the sha256 of every sweep in ``SWEEPS``, as CSV and as JSON.

A change that claims byte-identical results compares the two trees with
one diff, running this script on each tree's ``src``:

    PYTHONPATH=../parent/src python3 tools/sweep_digests.py > parent.txt
    PYTHONPATH=src python3 tools/sweep_digests.py > change.txt
    diff parent.txt change.txt

Each entry is the text of a config file, parsed as ``fedmar sweep --config``
parses it. Its rows come from ``bench.run_experiment`` and are rendered as
``fedmar sweep --out`` writes them. One line per entry and format:
``name format sha256``. ``tests/data/sweep_digests.txt`` holds the output,
which tier-1 tests compare, once as is and once in a subprocess under
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3"``, with
numpy's AVX-512 and AVX2 dispatch off; a change that moves results on
purpose regenerates it. The script takes no flags.
"""

from __future__ import annotations

import hashlib

from fedmar import bench

# name -> config text; "golden" is the default sweep of tests/data/default_sweep.csv
SWEEPS = {
    "golden": "",
    "triples-8-seeds": "seeds = 1 2 3 4 5 6 7 8\nweights = 0.5,0.5,1 0.9,0.1,1 0.1,0.9,1\n",
    "f_max": "sweep = f_max_ghz\nsweep_values = 0.1 0.15 0.25 0.5 1 1.5 2\nseeds = 1 2 3\n",
    "gamma": "sweep = gamma\nsweep_values = 0 0.5 1 2 3 4 5\nseeds = 1 2\n",
    "p_min-inf-nearest": "p_min_dbm = -inf\npairing = nearest\nweights = 1,0,1 0.5,0.5,1\n",
    "f_min-0.5": "f_min_ghz = 0.5\nseeds = 1 2 3\n",
    "beta-0": "weights = 1,0,1 1,0,0.05\nseeds = 1 2 3\n",
    "users-1000": "users = 1000\nchannels = 500\n",
    "users-4000": "users = 4000\nchannels = 2000\n",
    "users-10000": "users = 10000\nchannels = 5000\npairing = nearest\n",
    "users-4000-p_min-inf": "users = 4000\nchannels = 2000\np_min_dbm = -inf\npairing = nearest\n",
    "users-2000-p_min-inf": "users = 2000\nchannels = 1000\np_min_dbm = -inf\n",
    "workload-keys": (
        "cycles_low = 2e4\ncycles_high = 6e4\nsamples = 300\nupload_kbits = 56.2\nseeds = 1 2 3\n"
    ),
}

def spec_of(text: str) -> bench.ExperimentSpec:
    return bench.spec_from_values(bench.parse_config_text(text))


def main() -> None:
    for name, text in SWEEPS.items():
        rows = bench.run_experiment(spec_of(text))
        for fmt, render in bench.FORMATS.items():
            print(name, fmt, hashlib.sha256(render(rows).encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
