"""The benchmark's layer tracer still finds the names it counts.

``perfbench/layer_trace.py`` wraps program functions by name, so a rename
would silently zero its metrics.  These install the tracer in a fresh
process, run tiny CLI pipelines (``dynamics`` and ``bound-chain``, then
``virial-scan``) and check that the matvec, commutator-build, eigensolve
and family counters see calls; the script counts sigma^2 builds itself.
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
from thermion.operators import Truncation
sigma, built = Truncation.sigma_sq.func, []
Truncation.sigma_sq.func = lambda trunc: built.append(trunc) or sigma(trunc)
for args in json.loads(sys.argv[2]):
    thermion.cli.main([*args, "--out", sys.argv[1]])
calls = {name: f["calls"] for name, f in tracer.summary()["functions"].items()}
print(json.dumps({**calls, "Truncation.sigma_sq": len(built)}))
"""


def _traced_calls(out_dir, runs) -> dict:
    path = [str(Path(thermion.__file__).resolve().parents[1]),
            str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(out_dir),
                           json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_layer_tracer_counts_matvecs_and_commutator_builds(tmp_path):
    calls = _traced_calls(tmp_path, [
        ["dynamics", "model.n_e=4", "model.n_u=8", "model.n_max=1",
         "dynamics.n_times=10"],
        ["bound-chain", "model.n_e=6", "model.n_u=6", "model.n_max=1"]])
    assert calls["operators.LiouvillianAction.matvec"] > 0
    # the chain's probe and run share one truncation: I_1 and sigma^2 are
    # built once, and at n_max = 1 their closed form runs no eigensolve
    assert calls["commutators.interaction_commutator"] == 1
    assert calls["Truncation.sigma_sq"] == 1
    assert calls["linalg.min_eig_hermitian"] == 0
    # at n_max = 2: the k49 probe, k at the run coupling and the domination
    # step
    calls = _traced_calls(tmp_path, [
        ["bound-chain", "model.n_e=4", "model.n_u=4", "model.n_max=2"]])
    assert calls["commutators.interaction_commutator"] == 1
    assert calls["Truncation.sigma_sq"] == 0
    assert calls["linalg.min_eig_hermitian"] == 3


def test_layer_tracer_sees_the_virial_scan(tmp_path):
    calls = _traced_calls(tmp_path, [
        ["virial-scan", "model.n_e=4", "model.n_u=6", "model.n_max=1"]])
    # one eigensolve on L: the family's base is the first of its pairs
    assert calls["linalg.eig_pairs_smallest"] == 1
    assert calls["virial.build_regularized_family"] == 1
