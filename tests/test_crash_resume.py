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
correctors, and ``commit_by_key``.  The two model sinks read one model
directory, as ``cli run --model-dir`` does.

- ``test_commit_crash_then_resume``: ``commit_partition`` stops at one of
  its four steps (the data write, the data rename, the marker write, the
  marker rename) for partitions removed from a finished store.  The rerun
  commits exactly those partitions.
- ``test_crash_before_any_marker_then_new_input``: the same four crashes in
  a store with no marker, then a run on another input.  The store equals a
  clean run on that input: a partition the new input does not write keeps
  nothing of the crash.
- ``test_killed_run_then_rerun``: ``cli run``, ``cli commit``, ``cli corpus``,
  ``cli feed`` and ``cli parse-markup`` in a child process, SIGKILLed
  together with every process the child started, either once its Ray
  workers exist and before any commit, or once its first partition has
  committed.  The rerun is in this process, at another ``--concurrency``
  (the other commands have none; their rerun runs on this process's 4-CPU
  cluster instead of the child's 2).
- ``test_corrector_worker_killed_mid_batch``: ``cli run`` with one
  corrector actor, whose worker process alone is SIGKILLed while it runs a
  batch.  Ray restarts the actor and retries the batch, and the run itself
  finishes the store.
"""

import collections
import glob
import json
import os
import pathlib
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
# knob, so there the block count is what changes.
REF_LAYOUT = dict(blocks=5, batch_size=4, concurrency=2)
_CLOCKS = ("write_seconds", "committed_at_unix")
# the commands whose store only the CLI writes, at its default partitions
CLI_SINKS = ("corpus", "feed", "parse-markup")
FEED_BATCH = 2


_WORDS = ["river stone", "maple quiet", "lantern", "copper meadow", "orbit",
          "velvet harbor"]


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
        ("short", "a"): _short_pages(_WORDS),
        ("short", "b"): _short_pages(["cinder", "pillar saffron", "thistle",
                                      "quarry fable"]),
    }
    paths = {}
    for (kind, which), tbl in tables.items():
        paths[kind, which] = str(d / f"{kind}_{which}.parquet")
        pq.write_table(tbl, paths[kind, which])
    words = sorted(" ".join(_WORDS).split())
    paths["corpus", "a"] = str(d / "corpus_a.parquet")
    pq.write_table(pa.table({
        "url": [f"u{i:02d}" for i in range(40)],
        "clean": [" ".join(words[i % len(words):][:3]) for i in range(40)],
        "messy": [" ".join(words[(i + 1) % len(words):][:2]) for i in range(40)],
        "split": ["train"] * 40}), paths["corpus", "a"])
    markup = d / "markup_a"
    markup.mkdir()
    for i in range(16):
        (markup / f"doc{i:02d}.vert").write_text(
            "".join(f"<s>\n{w}\t{w}\tX\t0\n</s>\n" for w in words[i:i + 1 + i % 3]),
            encoding="utf-8")
    paths["markup", "a"] = str(markup)
    paths["alphabet"] = str(d / "alphabet.txt")
    with open(paths["alphabet"], "w", encoding="utf-8") as f:
        f.write("".join(sorted(set("".join(words)) | {" "})))
    return paths


@pytest.fixture(scope="module")
def model_dir(inputs, tmp_path_factory) -> str:
    """A model directory with the flagship's seed-7 neural model and a
    dictionary of the word counts of input ``a``'s extracted text.  With a
    high frequency floor the rarer words become corrections, so the
    dictionary stage rewrites text."""
    from __ray_entry__ import FLAGSHIP_ALPHABET, TINY_HPARAMS
    from corpus_oracle import oracle_token_counts
    from post_ocr_corrector_ray.model.artifacts import DICTIONARY_FILE, save_model_dir
    from post_ocr_corrector_ray.model.dictionary import DictionaryCorrector
    from post_ocr_corrector_ray.model.neural import NeuralCorrectorModel
    from post_ocr_corrector_ray.oracle import oracle_extract

    clean = oracle_extract(pq.read_table(inputs["pages", "a"]))
    d = str(tmp_path_factory.mktemp("model"))
    save_model_dir(d, NeuralCorrectorModel.from_seed(FLAGSHIP_ALPHABET, seed=7,
                                                     **TINY_HPARAMS))
    DictionaryCorrector(oracle_token_counts(list(clean.values())),
                        min_frequency=MIN_FREQUENCY).save(os.path.join(d, DICTIONARY_FILE))
    return d


def _input(sink: str, which: str, inputs) -> str:
    kind = {"neural": "short", "feed": "corpus", "parse-markup": "markup"}
    return inputs[kind.get(sink, "pages"), which]


def _cli_argv(sink: str, path: str, out: str, inputs) -> list[str]:
    """The argv of the CLI command that writes ``sink``'s store."""
    if sink == "feed":
        return ["feed", path, out, "--alphabet-file", inputs["alphabet"],
                "--batch-size", str(FEED_BATCH)]
    return [sink, path, out]


def _run(sink: str, path: str, out: str, model_dir: str, *, blocks: int,
         batch_size: int, concurrency: int) -> list[int]:
    """Run ``sink`` over the parquet at ``path`` into the store ``out``, read
    in ``blocks`` blocks, with the model that ``cli run`` loads from
    ``model_dir``; returns the partitions it committed."""
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
        from post_ocr_corrector_ray.model.artifacts import (
            load_dictionary,
            read_alphabet,
        )

        kwargs = {}
        if sink == "dictionary":
            corr = load_dictionary(model_dir)
            kwargs = dict(vocab_ref=corr.vocabulary, min_frequency=corr.min_frequency)
        elif sink == "neural":
            kwargs = dict(alphabet=read_alphabet(model_dir),
                          model_path=os.path.join(model_dir, "weights.npz"))
        summary = extract_correct(ds, corrector=sink, out_dir=out,
                                  num_partitions=PARTS,
                                  input_fingerprint=fingerprint,
                                  batch_size=batch_size, concurrency=concurrency,
                                  **kwargs)
    return sorted(summary.to_pandas()["part"].tolist())


@pytest.fixture(scope="module")
def reference(inputs, model_dir, tmp_path_factory):
    """``reference(sink, which)``: the store of one uninterrupted run of
    ``sink`` over input ``which``, built once per module."""
    stores = {}

    def get(sink: str, which: str) -> str:
        if (sink, which) not in stores:
            out = str(tmp_path_factory.mktemp(f"ref_{sink}_{which}") / "store")
            path = _input(sink, which, inputs)
            if sink in CLI_SINKS:
                from post_ocr_corrector_ray.cli import main

                assert main(_cli_argv(sink, path, out, inputs)) == 0
            else:
                _run(sink, path, out, model_dir, **REF_LAYOUT)
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


def _keys(sink: str, input_path: str) -> tuple[str, list]:
    """The key column of ``sink``'s store over ``input_path``, and each key
    as often as the store holds it."""
    if sink == "feed":
        n = pq.read_metadata(input_path).num_rows
        return "batch_id", list(range(-(-n // FEED_BATCH)))
    if sink == "parse-markup":
        from post_ocr_corrector_ray.sources.markup import markup_to_sentences_batch

        files = lin.input_files(input_path, suffix="")
        blobs = [pathlib.Path(f).read_text(encoding="utf-8") for f in files]
        sentences = markup_to_sentences_batch(pa.table({"path": files, "markup": blobs}))
        return "path", sentences.column("path").to_pylist()
    return "url", pq.read_table(input_path, columns=["url"]).column("url").to_pylist()


def _assert_same_store(got: str, want: str, sink: str, input_path: str) -> None:
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
    key, keys = _keys(sink, input_path)
    assert collections.Counter(lin.read_output(got).column(key).to_pylist()) == \
        collections.Counter(keys)


_CRASH_CASES = [(sink, phase, blocks)
                for sink in ("null", "dictionary", "commit")
                for phase in PHASES for blocks in (1, 3, 7, 16)] + \
               [("neural", phase, 2) for phase in PHASES]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("sink,phase,blocks", _CRASH_CASES)
def test_commit_crash_then_resume(sink, phase, blocks, inputs, model_dir,
                                  reference, tmp_path):
    ref = reference(sink, "a")
    out = str(tmp_path / "store")
    shutil.copytree(ref, out)
    lost = sorted(lin.committed_partitions(ref))[::5]
    for part in lost:
        shutil.rmtree(lin.partition_dir(out, part))
        _crashed_commit(_ref_rows(ref, part), out, part, phase)
    path = _input(sink, "a", inputs)
    assert _run(sink, path, out, model_dir, blocks=blocks, batch_size=3,
                concurrency=1) == lost
    _assert_same_store(out, ref, sink, path)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("sink", ["null", "dictionary", "commit", "neural"])
@pytest.mark.parametrize("phase", PHASES)
def test_crash_before_any_marker_then_new_input(sink, phase, inputs, model_dir,
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
    assert _run(sink, path, out, model_dir, blocks=3, batch_size=3,
                concurrency=1) == sorted(parts_b)
    _assert_same_store(out, ref_b, sink, path)


# -- kill points (a), (b) and (c): SIGKILLed processes -------------------------

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


def _cli_child(argv: list[str], log: str) -> subprocess.Popen:
    """The CLI with ``argv`` in a child process with its own session."""
    with open(log, "wb") as err:
        return subprocess.Popen(
            [sys.executable, "-m", "post_ocr_corrector_ray.cli", *argv],
            cwd=REPO_ROOT, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True)


def _wait_for(child: subprocess.Popen, log: str, what: str, ready):
    """Poll ``ready()`` until it returns something true, and return that;
    fail if the child ends first."""
    deadline = time.monotonic() + 120
    while not (got := ready()):
        if child.poll() is not None or time.monotonic() > deadline:
            with open(log, encoding="utf-8", errors="replace") as f:
                pytest.fail(f"the run ended (code {child.poll()}) before "
                            f"{what}: {f.read()[-2000:]}")
        time.sleep(0.005)
    return got


def _killed_run(argv: list[str], out: str, point: str, log: str) -> None:
    """Run the CLI with ``argv`` in a child process and SIGKILL it at
    ``point``: "a" once its Ray workers exist and no partition has
    committed, "b" once the first partition has committed."""
    child = _cli_child(argv, log)
    try:
        _wait_for(child, log, f"kill point ({point})",
                  lambda: _markers(out) if point == "b"
                  else _has_ray_worker(child.pid) and not _markers(out))
    finally:
        _kill_tree(child)


def _correcting(pid: int) -> bool:
    """Whether ``pid`` is a corrector actor's worker inside a batch: Ray
    titles an actor's worker ``ray::MapWorker(...).submit()`` while it runs
    a task, and ``ray::MapWorker(...)`` between tasks."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return (cmd.startswith(b"ray::MapWorker(") and b"CorrectorStage)" in cmd
            and b".submit" in cmd)


def _stop_mid_batch(pid: int) -> int | None:
    """SIGSTOP a corrector actor's worker under ``pid`` that is inside a
    batch, and return it; ``None`` if no worker is (one that finished its
    batch between the two looks is let go again)."""
    for worker in filter(_correcting, _descendants(pid)):
        try:
            os.kill(worker, signal.SIGSTOP)
            if _correcting(worker):
                return worker
            os.kill(worker, signal.SIGCONT)
        except ProcessLookupError:
            pass
    return None


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("point", ["a", "b"])
@pytest.mark.parametrize("sink", ["null", "dictionary", "commit", "neural", *CLI_SINKS])
def test_killed_run_then_rerun(sink, point, inputs, model_dir, reference, tmp_path):
    from post_ocr_corrector_ray.cli import main

    path, out = _input(sink, "a", inputs), str(tmp_path / "store")
    if sink == "commit" or sink in CLI_SINKS:
        argv = (_cli_argv(sink, path, out, inputs) if sink in CLI_SINKS else
                ["commit", path, out, "--key-col", "url", "--partitions", str(PARTS)])
        # no --concurrency: the rerun differs in cluster size
        rerun = argv
    else:
        argv = ["run", path, out, "--corrector", sink, "--partitions", str(PARTS)]
        if sink != "null":
            argv += ["--model-dir", model_dir]
        argv, rerun = argv + ["--concurrency", "1"], argv + ["--concurrency", "2"]
    _killed_run(["--num-cpus", "2", *argv], out, point, str(tmp_path / "child.log"))
    committed = lin.committed_partitions(out)
    assert bool(committed) == (point == "b")
    assert main(rerun) == 0
    _assert_same_store(out, reference(sink, "a"), sink, path)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("sink", ["dictionary", "neural"])
def test_corrector_worker_killed_mid_batch(sink, inputs, model_dir, reference,
                                           tmp_path):
    """Kill point (c): the run loses its one corrector actor mid-batch and
    still writes the uninterrupted run's store, with no rerun."""
    path, out = _input(sink, "a", inputs), str(tmp_path / "store")
    log = str(tmp_path / "child.log")
    child = _cli_child(["--num-cpus", "2", "run", path, out, "--corrector", sink,
                        "--model-dir", model_dir, "--partitions", str(PARTS),
                        "--concurrency", "1"], log)
    try:
        worker = _wait_for(child, log, "kill point (c)",
                           lambda: _stop_mid_batch(child.pid))
        assert not _markers(out)
        os.kill(worker, signal.SIGKILL)
        code = child.wait(timeout=170)
    finally:
        if child.poll() is None:
            _kill_tree(child)
    with open(log, encoding="utf-8", errors="replace") as f:
        assert code == 0, f.read()[-2000:]
    assert not _alive(worker)
    _assert_same_store(out, reference(sink, "a"), sink, path)
