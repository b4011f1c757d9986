"""Webtext pipeline benchmark: pages -> extract -> correct -> committed store,
run through ``pipelines.extract_correct.extract_correct`` on Ray.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload neural_flagship --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics of repeated untraced runs of the
job; ``--trace 1`` runs the job once untraced, then replays it traced in one
process and prints the per-layer metrics (``tracing.py``).  Every run's
committed store is checked url by url against the single-process oracle
(``gate.py``); the last stdout line is the JSON result, the line before it
records the host and the configuration.  Scratch files live under
``.perfbench_work/`` in the checkout, Ray's session files under ``.pbray/``;
trace artifacts are kept in ``.perfbench_work/traces/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import glob
import itertools
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import threading
import time

for _v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_v] = "1"

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
# Hard cap on one whole run: a hang is killed and reported as a failed run.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 3
OBJECT_STORE_BYTES = 256 * 1024 * 1024
# Ray's temp dir (session logs and unix sockets).  AF_UNIX paths stop at 107
# bytes and Ray puts its sockets up to 64 bytes below the temp dir, so it is a
# short dot-dir at the root of the checkout; Ray's default is used when even
# that is too long.
RAY_TMP = os.path.join(ROOT, ".pbray")
MAX_RAY_TMP_LEN = 43


_T0 = time.monotonic()


def log(msg: str) -> None:
    print(f"perfbench [{time.monotonic() - _T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


class Result:
    """What a run has measured and verified so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.metrics: dict[str, dict] = {}
        self.lock = threading.Lock()

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def line(self) -> str:
        return json.dumps({"correct": self.failed == 0 and self.attempted > 0,
                           "attempted": max(self.attempted, 1),
                           "failed": self.failed if self.attempted else 1,
                           "metrics": self.metrics})


# -- process hygiene -----------------------------------------------------------

def _children() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8", errors="replace") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            out.setdefault(int(fields[1]), []).append(int(name))
    return out


def descendants(pid: int) -> list[int]:
    tree, out, todo = _children(), [], [pid]
    while todo:
        for child in tree.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8", errors="replace") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def kill_and_wait(pids: list[int]) -> None:
    """SIGKILL each of ``pids`` still alive and wait until each has ended."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        if not any(_alive(pid) for pid in pids):
            return
        time.sleep(0.05)


def stop_ray() -> None:
    """Shut the Ray session down, then make sure every process it started
    (raylet, GCS, workers; some outlive ``ray.shutdown``) has ended."""
    import ray

    pids = descendants(os.getpid())
    ray.shutdown()
    kill_and_wait(pids + descendants(os.getpid()))


def clear_ray_tmp() -> None:
    """Remove this run's Ray sessions (Ray names them after the driver's pid),
    and the temp dir once no other run's session is left in it."""
    for path in glob.glob(os.path.join(RAY_TMP, f"session_*_{os.getpid()}")):
        shutil.rmtree(path, ignore_errors=True)
    if not glob.glob(os.path.join(RAY_TMP, "session_2*")):
        shutil.rmtree(RAY_TMP, ignore_errors=True)


def peak_worker_rss_mb() -> float:
    """Largest ``VmHWM`` over this run's Ray worker processes."""
    peak_kb = 0
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if b"ray::" not in cmd and b"default_worker.py" not in cmd:
                continue
            with open(f"/proc/{pid}/status", encoding="utf-8") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024


def start_watchdog(result: Result) -> threading.Timer:
    def fire():
        with result.lock:
            print(f"perfbench: run exceeded {RUN_DEADLINE_S:.0f} s; killed",
                  file=sys.stderr, flush=True)
            result.failed = max(result.failed, 1)
            kill_and_wait(descendants(os.getpid()))
            clear_ray_tmp()
            print(result.line(), flush=True)
            os._exit(1)

    timer = threading.Timer(RUN_DEADLINE_S, fire)
    timer.daemon = True
    timer.start()
    return timer


# -- the job ------------------------------------------------------------------

def ray_sizing() -> tuple[int, int]:
    """(corrector actors, Ray logical CPUs): one actor, and two slots more
    than the pool reserves.  With one spare slot, read tasks and the
    exchange's sort tasks were seen waiting up to 20 s for the pool's actors
    to release their CPUs after the last batch.  With two actors on a shared
    four-core host the neural job's wall is the slower actor's: over ten
    runs each, docs/s spread (quartile distance over median) 0.19 with two
    actors against 0.15 with one."""
    return 1, 3


def ray_start(num_cpus: int) -> None:
    import ray
    import ray.data

    kwargs = {}
    if len(RAY_TMP) <= MAX_RAY_TMP_LEN:
        kwargs["_temp_dir"] = RAY_TMP
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def build_plan(wl, input_dir: str, store: str, fingerprint: str, actors: int):
    import ray.data

    from post_ocr_corrector_ray.pipelines.extract_correct import extract_correct
    from workloads import NUM_PARTITIONS

    return extract_correct(
        ray.data.read_parquet(input_dir, override_num_blocks=wl.n_files),
        corrector=wl.corrector, out_dir=store,
        num_partitions=NUM_PARTITIONS, input_fingerprint=fingerprint,
        batch_size=wl.batch_size, concurrency=actors, **wl.correct_kwargs)


def submit(plan, num_cpus: int) -> tuple[float, float]:
    """Execute the plan until the store is complete; (submit, done) unix times.
    Each job starts on an idle cluster: the previous job's actors release
    their CPUs asynchronously after it returns."""
    import ray

    t0 = time.monotonic()
    while ray.available_resources().get("CPU", 0) < num_cpus and time.monotonic() < t0 + 10:
        time.sleep(0.02)
    if time.monotonic() - t0 > 1:
        log(f"waited {time.monotonic() - t0:.1f} s for idle CPUs: {ray.available_resources()}")
    t_submit = time.time()
    plan.take_all()
    return t_submit, time.time()


def verify(result: Result, store: str, oracle: dict, digest_before=None) -> None:
    import gate

    bad = len(gate.bad_urls(store, oracle))
    if digest_before is not None:
        bad += gate.changed_files(digest_before, gate.store_digest(store))
    with result.lock:
        result.attempted += len(oracle)
        result.failed += bad
    if bad:
        print(f"perfbench: {bad} failures against the oracle in {store}",
              file=sys.stderr, flush=True)


def first_commit_s(store: str, t_submit: float) -> float:
    from post_ocr_corrector_ray.state import lineage as lin

    return min(rec["committed_at_unix"] for rec in lin.read_lineage(store)) - t_submit


def run(args, result: Result, run_dir: str) -> dict:
    import ray

    import gate
    from post_ocr_corrector_ray.state import lineage as lin
    from workloads import WORKLOADS, stage_pages

    wl = WORKLOADS[args.workload]
    actors, num_cpus = ray_sizing()
    input_dir = os.path.join(run_dir, "pages")
    pages = stage_pages(wl, args.seed, input_dir)
    fingerprint = lin.fingerprint_inputs(input_dir)
    log(f"staged {pages.num_rows} pages")

    store_n = itertools.count()

    def fresh_store() -> str:
        return os.path.join(run_dir, f"store-{next(store_n)}")

    def first_job() -> dict:
        """The untimed first job of a session, in which the task workers
        import the pipeline's modules cold: the same job with the null
        corrector, so read, extract, exchange and commit tasks run at full
        width.  The oracle is computed beside it; returns the oracle."""
        oracle_result = gate.start_oracle(pages, wl.correct_kwargs,
                                          processes=min(3, len(os.sched_getaffinity(0))))
        warm, null = fresh_store(), dataclasses.replace(wl, corrector="null", correct_kwargs={})
        submit(build_plan(null, input_dir, warm, fingerprint, actors), num_cpus)
        shutil.rmtree(warm)
        oracle = oracle_result()
        log("oracle ready")
        return oracle

    env = {"logical_cpus": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
           "ray_num_cpus": num_cpus, "actors": actors, "batch_size": wl.batch_size,
           "hparams": wl.correct_kwargs.get("hparams"), "pages": pages.num_rows,
           "seed": args.seed, "ray": ray.__version__}
    if args.trace:
        ray_start(num_cpus)
        oracle = first_job()
        store = fresh_store()
        t_submit, t_done = submit(build_plan(wl, input_dir, store, fingerprint, actors),
                                  num_cpus)
        verify(result, store, oracle)
        markers = lin.read_lineage(store)
        stop_ray()
        return env | trace_run(wl, args, result, input_dir, fresh_store(), oracle,
                               markers, t_done - t_submit)

    # One session runs the jobs: the untimed first job, then timed jobs until
    # --seconds have passed (at least one), each into a fresh store with a
    # fresh actor pool, so the actors' start-up is timed.  SETUP_REPEATS - 1
    # more sessions are only set up, for the setup_s median.
    t0 = time.perf_counter()
    ray_start(num_cpus)
    init_s = time.perf_counter() - t0
    oracle = first_job()
    gc.collect()
    rss = 0.0
    jobs_start = time.perf_counter()
    while True:
        store = fresh_store()
        t0 = time.perf_counter()
        plan = build_plan(wl, input_dir, store, fingerprint, actors)
        if init_s is not None:
            result.add("setup_s", init_s + time.perf_counter() - t0)
            init_s = None
        t_submit, t_done = submit(plan, num_cpus)
        rss = max(rss, peak_worker_rss_mb())  # while the job's actors live
        verify(result, store, oracle)
        log(f"job: {t_done - t_submit:.2f} s")
        result.add("docs_per_s", pages.num_rows / (t_done - t_submit))
        result.add("first_commit_s", first_commit_s(store, t_submit))
        shutil.rmtree(store)
        # A finished job's actors live until its plan is collected; the
        # plan sits in reference cycles, so collect it before the next job.
        plan = None
        gc.collect()
        if time.perf_counter() - jobs_start >= args.seconds:
            break
    result.add("peak_worker_rss_mb", rss)
    stop_ray()
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.perf_counter()
        ray_start(num_cpus)
        build_plan(wl, input_dir, fresh_store(), fingerprint, actors)
        result.add("setup_s", time.perf_counter() - t0)
        stop_ray()
    log("setup: " + ", ".join(f"{s:.2f} s" for s in result.samples["setup_s"]))
    units = {"docs_per_s": "1/s", "first_commit_s": "s", "setup_s": "s",
             "peak_worker_rss_mb": "MB"}
    result.metrics = {name: {"value": statistics.median(result.samples[name]), "unit": unit}
                      for name, unit in units.items()}
    return env | {"iterations": len(result.samples["docs_per_s"])}


def trace_run(wl, args, result: Result, input_dir: str, store: str, oracle: dict,
              markers: list[dict], e2e_wall_s: float) -> dict:
    """Replay the job traced into ``store``, then resubmit it over that
    complete store; both are gated, the resubmission on leaving every store
    file unchanged as well."""
    import gate
    import tracing

    run_id = f"{wl.name}-seed{args.seed}"
    tr, counts = tracing.replay(wl, input_dir, store, run_id)
    verify(result, store, oracle)
    before = gate.store_digest(store)
    rerun_tr, rerun_counts = tracing.replay(wl, input_dir, store, run_id)
    verify(result, store, oracle, before)
    metrics = tracing.layer_metrics(tr, counts, rerun_tr, rerun_counts, markers, e2e_wall_s)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", f"{run_id}.json")
    tr.dump(path, {"metrics": {k: v for k, (v, _) in metrics.items()},
                   "resubmit_spans": rerun_tr.span_records()})
    result.metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {"trace_artifact": os.path.relpath(path, ROOT)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(1, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    try:
        import post_ocr_corrector_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: run from the root of a checkout of the repo ({e})",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = Result()
    watchdog = start_watchdog(result)
    run_dir = os.path.join(WORK, f"r{os.getpid()}")
    try:
        env = run(args, result, run_dir)
    finally:
        kill_and_wait(descendants(os.getpid()))
        shutil.rmtree(run_dir, ignore_errors=True)
        clear_ray_tmp()
    import numpy
    import pyarrow

    env |= {"pyarrow": pyarrow.__version__, "numpy": numpy.__version__}
    with result.lock:
        watchdog.cancel()
        print(json.dumps({"env": env}))
        print(result.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
