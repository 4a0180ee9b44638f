"""The benchmark's layer tracer still finds the names it counts.

``perfbench/layer_trace.py`` wraps program functions by name, so a rename
would silently zero its metrics.  This installs the tracer in a fresh
process, runs a tiny ``dynamics`` and ``bound-chain`` through the CLI and
checks that the matvec, commutator-build and eigensolve counters see
calls.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import thermion

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from layer_trace import Tracer
tracer = Tracer()
tracer.install()
import thermion.cli
for args in (["dynamics", "model.n_e=4", "model.n_u=8", "model.n_max=1",
              "dynamics.n_times=10"],
             ["bound-chain", "model.n_e=6", "model.n_u=6", "model.n_max=1"]):
    thermion.cli.main([*args, "--out", sys.argv[1]])
print(json.dumps({name: f["calls"]
                  for name, f in tracer.summary()["functions"].items()}))
"""


def test_layer_tracer_counts_matvecs_and_commutator_builds(tmp_path):
    path = [str(Path(thermion.__file__).resolve().parents[1]),
            str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert calls["operators.LiouvillianAction.matvec"] > 0
    # the chain's probe and run share one truncation: I_1 is built once
    assert calls["commutators.interaction_commutator"] == 1
    # the k49 probe, k at the run coupling and the domination step
    assert calls["linalg.min_eig_hermitian"] == 3
