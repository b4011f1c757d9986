"""Byte-identity across Ray parallelism levels — separate processes, separate
clusters, different num_cpus, identical output bytes (FIXTURES.md F4)."""

import json
import os
import subprocess
import sys

# the checkout this test file belongs to: the subprocess imports its package
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import os, sys, json
for v in ("OMP_NUM_THREADS","OPENBLAS_NUM_THREADS","MKL_NUM_THREADS"):
    os.environ.setdefault(v, "1")
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as e
ds = e._flagship(n_pages=40, batch_size=int(sys.argv[2]), concurrency=int(sys.argv[3]))
df = ds.to_pandas().sort_values("url")
out = {u: t for u, t in zip(df["url"], df["corrected_text"])}
print("RESULT::" + json.dumps(out, sort_keys=True))
ray.shutdown()
"""


def _run(num_cpus: int, batch_size: int, concurrency: int) -> dict:
    # leave >=1 cpu for the feeding task stage - an actor pool that reserves
    # every CPU starves the pipeline (ray_guide: pool sizing rule)
    r = subprocess.run([sys.executable, "-c", SCRIPT, str(num_cpus),
                        str(batch_size), str(concurrency)],
                       capture_output=True, text=True, cwd=REPO_ROOT, timeout=600)
    assert r.returncode == 0, r.stderr[-800:]
    line = [ln for ln in r.stdout.splitlines() if ln.startswith("RESULT::")][-1]
    return json.loads(line[len("RESULT::"):])


def test_output_bytes_invariant_to_cpus_and_batch_size():
    a = _run(num_cpus=3, batch_size=4, concurrency=2)
    b = _run(num_cpus=8, batch_size=16, concurrency=6)
    assert a == b
    assert len(a) == 40 and any(v for v in a.values())
