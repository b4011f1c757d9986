"""Crash and resume of the committed store.

Discretized Streams (SOSP'13) recovers a lost unit by recomputing it from
its input alone.  These tests hold the store to that claim: whatever a crash
left behind, a rerun under other settings (input block count, batch size,
concurrency) writes the store that an uninterrupted run writes.  "The same
store" means the same partition directories; in each, only ``data.parquet``
and ``_SUCCESS.json`` (no ``.tmp-*`` file); every ``data.parquet`` equal byte
for byte; every marker field equal except ``write_seconds`` and
``committed_at_unix``; and each input url committed exactly once.

The sinks are ``extract_correct`` with the null, dictionary and neural
correctors, and ``commit_by_key``.

- ``test_commit_crash_then_resume``: ``commit_partition`` stops at one of
  its four steps (the data write, the data rename, the marker write, the
  marker rename) for partitions removed from a finished store.  The rerun
  commits exactly those partitions.
- ``test_crash_before_any_marker_then_new_input``: the same four crashes in
  a store with no marker, then a run on another input.  The store equals a
  clean run on that input: a partition the new input does not write keeps
  nothing of the crash.
- ``test_killed_run_then_rerun``: ``cli run`` and ``cli commit`` in a child
  process, SIGKILLed together with every process the child started, either
  once its Ray workers exist and before any commit, or once its first
  partition has committed.  The rerun is in this process, at another
  ``--concurrency`` (``commit`` has none; its rerun runs on this process's
  4-CPU cluster instead of the child's 2).
"""

import collections
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from post_ocr_corrector_ray.state import lineage as lin

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARTS = 16
MIN_FREQUENCY = 25
PHASES = ["write_table", "data_replace", "marker_dump", "marker_replace"]
# the uninterrupted run's settings; every rerun uses batch size 3 and one
# actor or task at a time.  The null corrector is a task stage with neither
# knob, and the dictionary stage rounds a batch up to 128 rows, so there the
# block count is what changes.
REF_LAYOUT = dict(blocks=5, batch_size=4, concurrency=2)
_CLOCKS = ("write_seconds", "committed_at_unix")


def _short_pages(words: list[str]) -> pa.Table:
    """Pages whose text passes through extraction as is: a few words each,
    so the neural sink decodes a handful of short documents."""
    n = len(words)
    return pa.table({
        "url": pa.array([f"https://short.example/{w.replace(' ', '-')}"
                         for w in words], pa.string()),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "html": pa.array([None] * n, pa.binary()),
        "text": pa.array([w.capitalize() + "." for w in words], pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
    })


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input ``a`` of each sink, and ``b``, the other input a rerun meets."""
    from post_ocr_corrector_ray.sources.synth import pages_batch

    d = tmp_path_factory.mktemp("inputs")
    tables = {
        ("pages", "a"): pages_batch(np.arange(40), seed=3),
        ("pages", "b"): pages_batch(np.arange(8), seed=11),
        ("short", "a"): _short_pages(["river stone", "maple quiet", "lantern",
                                      "copper meadow", "orbit", "velvet harbor"]),
        ("short", "b"): _short_pages(["cinder", "pillar saffron", "thistle",
                                      "quarry fable"]),
    }
    paths = {}
    for (kind, which), tbl in tables.items():
        paths[kind, which] = str(d / f"{kind}_{which}.parquet")
        pq.write_table(tbl, paths[kind, which])
    return paths


@pytest.fixture(scope="module")
def vocab(inputs) -> dict:
    """Word counts of input ``a``'s extracted text.  With a high frequency
    floor the rarer words become corrections, so the stage rewrites text."""
    from post_ocr_corrector_ray.oracle import oracle_extract, oracle_token_counts

    clean = oracle_extract(pq.read_table(inputs["pages", "a"]))
    return oracle_token_counts(list(clean.values()))


def _input(sink: str, which: str, inputs) -> str:
    return inputs["short" if sink == "neural" else "pages", which]


def _run(sink: str, path: str, out: str, vocab: dict, *, blocks: int,
         batch_size: int, concurrency: int) -> list[int]:
    """Run ``sink`` over the parquet at ``path`` into the store ``out``, read
    in ``blocks`` blocks; returns the partitions it committed."""
    import ray.data

    from post_ocr_corrector_ray.pipelines.extract_correct import extract_correct

    ds = ray.data.read_parquet(path, override_num_blocks=blocks)
    fingerprint = lin.fingerprint_inputs(path)
    if sink == "commit":
        # a caller's upstream stage, at the batch size and concurrency set
        ds = ds.map_batches(lambda b: b, batch_format="pyarrow",
                            batch_size=batch_size, concurrency=concurrency)
        summary = lin.commit_by_key(ds, out, key_col="url", num_partitions=PARTS,
                                    input_fingerprint=fingerprint)
    else:
        kwargs = {}
        if sink == "dictionary":
            kwargs = dict(vocab_ref=vocab, min_frequency=MIN_FREQUENCY)
        elif sink == "neural":
            from __ray_entry__ import FLAGSHIP_ALPHABET, TINY_HPARAMS

            kwargs = dict(alphabet=FLAGSHIP_ALPHABET, seed=7, hparams=TINY_HPARAMS)
        summary = extract_correct(ds, corrector=sink, out_dir=out,
                                  num_partitions=PARTS,
                                  input_fingerprint=fingerprint,
                                  batch_size=batch_size, concurrency=concurrency,
                                  **kwargs)
    return sorted(summary.to_pandas()["part"].tolist())


@pytest.fixture(scope="module")
def reference(inputs, vocab, tmp_path_factory):
    """``reference(sink, which)``: the store of one uninterrupted run of
    ``sink`` over input ``which``, built once per module."""
    stores = {}

    def get(sink: str, which: str) -> str:
        if (sink, which) not in stores:
            out = str(tmp_path_factory.mktemp(f"ref_{sink}_{which}") / "store")
            _run(sink, _input(sink, which, inputs), out, vocab, **REF_LAYOUT)
            stores[sink, which] = out
        return stores[sink, which]

    return get


class _Crash(Exception):
    """Where the crashed commit's process died."""


class _Patched:
    """A module seen through ``lineage``: one attribute replaced, the rest
    read from the real module, so nothing outside ``lineage`` is touched."""

    def __init__(self, module, **fns):
        self._module, self._fns = module, fns

    def __getattr__(self, name):
        return self._fns.get(name) or getattr(self._module, name)


def _crashed_commit(table: pa.Table, out: str, part: int, phase: str) -> None:
    """``commit_partition(table, out, part)`` stopped at ``phase``, leaving
    what a process killed there leaves: half a temp parquet file; a whole
    temp parquet file; ``data.parquet`` and half a temp marker; or
    ``data.parquet`` and a whole temp marker."""
    real_write, real_replace = pq.write_table, os.replace
    renames = []

    def write_table(t, where, **kw):
        real_write(t, where, **kw)
        with open(where, "r+b") as f:
            f.truncate(os.path.getsize(where) // 2)
        raise _Crash(phase)

    def dump(obj, f, **kw):
        text = json.dumps(obj, **kw)
        f.write(text[:len(text) // 2])
        raise _Crash(phase)

    def replace(src, dst):
        renames.append(dst)
        if len(renames) == {"data_replace": 1, "marker_replace": 2}.get(phase):
            raise _Crash(phase)
        real_replace(src, dst)

    patched = {"write_table": ("pq", dict(write_table=write_table)),
               "marker_dump": ("json", dict(dump=dump)),
               "data_replace": ("os", dict(replace=replace)),
               "marker_replace": ("os", dict(replace=replace))}
    name, fns = patched[phase]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lin, name, _Patched(getattr(lin, name), **fns))
        with pytest.raises(_Crash):
            lin.commit_partition(table, out, part, num_partitions=PARTS)
    left = sorted(os.listdir(lin.partition_dir(out, part)))
    assert lin.SUCCESS_NAME not in left
    assert ("data.parquet" in left) == (phase in ("marker_dump", "marker_replace"))
    assert any(n.startswith(".tmp-") for n in left)


def _ref_rows(ref: str, part: int) -> pa.Table:
    return pq.read_table(os.path.join(lin.partition_dir(ref, part), "data.parquet"))


def _assert_same_store(got: str, want: str, input_path: str) -> None:
    def parts(store):
        return sorted(n for n in os.listdir(store) if n.startswith("part="))

    assert parts(got) == parts(want)
    for name in parts(want):
        g, w = os.path.join(got, name), os.path.join(want, name)
        assert sorted(os.listdir(g)) == [lin.SUCCESS_NAME, "data.parquet"], name
        with open(os.path.join(g, "data.parquet"), "rb") as fg, \
                open(os.path.join(w, "data.parquet"), "rb") as fw:
            assert fg.read() == fw.read(), name
        markers = []
        for d in (g, w):
            with open(os.path.join(d, lin.SUCCESS_NAME), encoding="utf-8") as f:
                markers.append({k: v for k, v in json.load(f).items()
                                if k not in _CLOCKS})
        assert markers[0] == markers[1], name
    urls = pq.read_table(input_path, columns=["url"]).column("url").to_pylist()
    assert collections.Counter(lin.read_output(got).column("url").to_pylist()) == \
        collections.Counter(urls)


_CRASH_CASES = [(sink, phase, blocks)
                for sink in ("null", "dictionary", "commit")
                for phase in PHASES for blocks in (1, 3, 7, 16)] + \
               [("neural", phase, 2) for phase in PHASES]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("sink,phase,blocks", _CRASH_CASES)
def test_commit_crash_then_resume(sink, phase, blocks, inputs, vocab, reference,
                                  tmp_path):
    ref = reference(sink, "a")
    out = str(tmp_path / "store")
    shutil.copytree(ref, out)
    lost = sorted(lin.committed_partitions(ref))[::5]
    for part in lost:
        shutil.rmtree(lin.partition_dir(out, part))
        _crashed_commit(_ref_rows(ref, part), out, part, phase)
    path = _input(sink, "a", inputs)
    assert _run(sink, path, out, vocab, blocks=blocks, batch_size=3,
                concurrency=1) == lost
    _assert_same_store(out, ref, path)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("sink", ["null", "dictionary", "commit", "neural"])
@pytest.mark.parametrize("phase", PHASES)
def test_crash_before_any_marker_then_new_input(sink, phase, inputs, vocab,
                                                reference, tmp_path):
    """Input ``a``'s run crashed in its first commits, so no partition has
    a marker; one crashed partition is written by input ``b``, one is not."""
    ref_a, ref_b = reference(sink, "a"), reference(sink, "b")
    parts_a, parts_b = lin.committed_partitions(ref_a), lin.committed_partitions(ref_b)
    out = str(tmp_path / "store")
    for part in (min(parts_a & parts_b), min(parts_a - parts_b)):
        _crashed_commit(_ref_rows(ref_a, part), out, part, phase)
    assert not lin.committed_partitions(out)
    path = _input(sink, "b", inputs)
    assert _run(sink, path, out, vocab, blocks=3, batch_size=3,
                concurrency=1) == sorted(parts_b)
    _assert_same_store(out, ref_b, path)


# -- kill points (a) and (b): a whole run SIGKILLed ----------------------------

def _children() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8", errors="replace") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        out.setdefault(ppid, []).append(int(name))
    return out


def _descendants(pid: int) -> set[int]:
    tree, out, todo = _children(), set(), [pid]
    while todo:
        for child in tree.get(todo.pop(), []):
            out.add(child)
            todo.append(child)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8", errors="replace") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _has_ray_worker(pid: int) -> bool:
    for child in _descendants(pid):
        try:
            with open(f"/proc/{child}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            return True
    return False


def _kill_tree(child: subprocess.Popen) -> None:
    """SIGKILL the child and every process it started.  The tree is stopped
    first, one level at a time until no new process shows up, so no process
    starts another while it is being killed."""
    stopped: set[int] = set()
    while True:
        fresh = ({child.pid} | _descendants(child.pid)) - stopped
        if not fresh:
            break
        for pid in fresh:
            try:
                os.kill(pid, signal.SIGSTOP)
            except ProcessLookupError:
                pass
        stopped |= fresh
    for pid in stopped:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    child.wait(timeout=30)
    deadline = time.monotonic() + 30
    while any(_alive(pid) for pid in stopped):
        assert time.monotonic() < deadline, "a killed process outlived SIGKILL"
        time.sleep(0.05)


def _markers(out: str) -> list[str]:
    return glob.glob(os.path.join(out, "part=*", lin.SUCCESS_NAME))


def _killed_run(argv: list[str], out: str, point: str, log: str) -> None:
    """Run the CLI with ``argv`` in a child process with its own session and
    SIGKILL it at ``point``: "a" once its Ray workers exist and no partition
    has committed, "b" once the first partition has committed."""
    with open(log, "wb") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "post_ocr_corrector_ray.cli", *argv],
            cwd=REPO_ROOT, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while not (_markers(out) if point == "b"
                   else _has_ray_worker(child.pid) and not _markers(out)):
            if child.poll() is not None or time.monotonic() > deadline:
                with open(log, encoding="utf-8", errors="replace") as f:
                    pytest.fail(f"the run ended (code {child.poll()}) before "
                                f"kill point ({point}): {f.read()[-2000:]}")
            time.sleep(0.005)
    finally:
        _kill_tree(child)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("point", ["a", "b"])
@pytest.mark.parametrize("sink", ["null", "dictionary", "commit"])
def test_killed_run_then_rerun(sink, point, inputs, vocab, reference, tmp_path):
    from post_ocr_corrector_ray.cli import main
    from post_ocr_corrector_ray.model.dictionary import DictionaryCorrector

    path, out = inputs["pages", "a"], str(tmp_path / "store")
    if sink == "commit":
        argv = ["commit", path, out, "--key-col", "url", "--partitions", str(PARTS)]
        # ``commit`` has no --concurrency: its rerun differs in cluster size
        rerun = argv
    else:
        argv = ["run", path, out, "--corrector", sink, "--partitions", str(PARTS)]
        if sink == "dictionary":
            mdir = tmp_path / "model"
            mdir.mkdir()
            DictionaryCorrector(vocab, min_frequency=MIN_FREQUENCY).save(
                str(mdir / "dictionary.json"))
            argv += ["--model-dir", str(mdir)]
        argv, rerun = argv + ["--concurrency", "1"], argv + ["--concurrency", "2"]
    _killed_run(["--num-cpus", "2", *argv], out, point, str(tmp_path / "child.log"))
    committed = lin.committed_partitions(out)
    assert bool(committed) == (point == "b")
    assert main(rerun) == 0
    _assert_same_store(out, reference(sink, "a"), path)
