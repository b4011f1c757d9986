"""Self-tests of the benchmark.  Run from the root of a checkout (about two
minutes on four cores)::

    python3 perfbench/selftest.py

- Smoke: a toy-size run of every workload through the benchmark's one
  command, untraced and traced.  Each must pass its oracle gate and print
  every metric ``BENCHMARK.json`` names, with the unit named there.
- Gate: a committed store passes the oracle gate; a corrupted copy of it (one
  byte-changed row, one partition marker removed) fails it, with
  ``failed / attempted`` above 0, and its changed files are counted the way
  a resubmission counts them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys

import run

TOY = {
    "neural_flagship": dict(mix={"html": 2, "pdf": 1, "text_only": 1, "html_empty": 1},
                            n_files=2),
    "extract_commit": dict(n_pages=60, n_files=2),
}


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def smoke(failures: list[str]) -> None:
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads.WORKLOADS = {name: dataclasses.replace(wl, **TOY[name])
                           for name, wl in workloads.WORKLOADS.items()}
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                                 "--trace", str(trace)])
            res = json.loads(out.getvalue().strip().splitlines()[-1])
            for metric, v in res["metrics"].items():
                print(f"      {name} trace={trace} {metric} = {v['value']} {v['unit']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {metric: v["unit"] for metric, v in res["metrics"].items()}
            check(code == 0 and res["correct"] and res["failed"] == 0,
                  f"{name} trace={trace}: exit 0, oracle gate passed", failures)
            check(got == want, f"{name} trace={trace}: every {key} metric with its unit",
                  failures)


def gate_check(failures: list[str]) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    import gate as oracle_gate
    import workloads
    from post_ocr_corrector_ray.state import lineage as lin

    wl = dataclasses.replace(workloads.WORKLOADS["extract_commit"], **TOY["extract_commit"])
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    pages_dir, store = os.path.join(work, "pages"), os.path.join(work, "store")
    try:
        pages = workloads.stage_pages(wl, 1, pages_dir)
        oracle = oracle_gate.start_oracle(pages, {}, processes=1)()
        run.ray_start(2)
        try:
            run.submit(run.build_plan(wl, pages_dir, store, "", 1), 2)
        finally:
            run.stop_ray()
        clean = run.Result()
        run.verify(clean, store, oracle)
        check(clean.failed == 0, "committed store passes the oracle gate", failures)

        corrupt = os.path.join(work, "corrupt")
        shutil.copytree(store, corrupt)
        first, second = sorted(lin.committed_partitions(corrupt))[:2]
        data = os.path.join(lin.partition_dir(corrupt, first), "data.parquet")
        table = pq.read_table(data)
        texts = table.column("corrected_text").to_pylist()
        texts[0] = texts[0] + "x"
        idx = table.column_names.index("corrected_text")
        pq.write_table(table.set_column(idx, "corrected_text", pa.array(texts, pa.string())), data)
        os.remove(os.path.join(lin.partition_dir(corrupt, second), lin.SUCCESS_NAME))
        bad = run.Result()
        run.verify(bad, corrupt, oracle)
        print(f"      corrupted store: failed_frac = {bad.failed}/{bad.attempted}")
        check(bad.failed / bad.attempted > 0, "corrupted store fails the oracle gate", failures)
        changed = oracle_gate.changed_files(oracle_gate.store_digest(store),
                                            oracle_gate.store_digest(corrupt))
        check(changed == 2, f"corrupted store: {changed} changed files counted", failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    sys.path.insert(1, run.ROOT)
    os.environ["PYTHONPATH"] = run.ROOT
    gate_check(failures)
    smoke(failures)
    print("selftest: " + ("passed" if not failures else f"{len(failures)} FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
