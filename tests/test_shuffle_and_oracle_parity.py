"""Coarse hash-partitioned shuffle helper + SQL-oracle parity guard.

The parity test runs every oracle-backed ``__ray_entry__`` query against its
DuckDB oracle on the fixture the oracles' inlined constants were derived
from.
"""

import os
import re

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entry
from post_ocr_corrector_ray.stages.shuffle import grouped_agg, grouped_apply

SF = "/root/testdata/sf0.001"
TABLES = "documents"
ORACLES = entry.oracle_sql()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES.split():
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{entry._ORACLE_SF_DIR}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
class TestShuffleHelpers:
    def test_grouped_agg_matches_pandas(self):
        import ray.data

        rng = np.random.default_rng(5)
        df = pd.DataFrame({"k": rng.integers(0, 5000, 20000).astype("int64"),
                           "v": rng.integers(0, 100, 20000).astype("int64")})
        got = grouped_agg(ray.data.from_pandas(df), ["k"],
                          {"total": ("v", "sum"), "lo": ("v", "min")}).to_pandas()
        want = df.groupby("k", as_index=False).agg(total=("v", "sum"), lo=("v", "min"))
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)

    def test_grouped_apply_sees_whole_key(self):
        import ray.data

        df = pd.DataFrame({"k": np.arange(1000) % 97, "v": np.arange(1000)})

        def span(d: pd.DataFrame) -> pd.DataFrame:
            return d.groupby("k", as_index=False).agg(span=("v", lambda s: s.max() - s.min()))

        got = grouped_apply(ray.data.from_pandas(df), ["k"], span).to_pandas()
        want = df.groupby("k", as_index=False).agg(span=("v", lambda s: s.max() - s.min()))
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestShuffleHelpersSpec:
    """Each helper against pandas on a two-column (string, int) key, with
    every key's rows spread over several input blocks."""

    @staticmethod
    def _frame():
        rng = np.random.default_rng(12)
        n = 3000
        v = rng.integers(-100, 100, n).astype("float64")
        v[rng.random(n) < 0.1] = np.nan
        return pd.DataFrame({"a": rng.choice(["en", "de", "fr"], n),
                             "b": rng.integers(0, 200, n).astype("int64"),
                             "v": v})

    @pytest.mark.parametrize("how", ["sum", "min", "max", "count"])
    def test_grouped_agg_each_combinable_agg(self, how, exchange_width):
        import ray.data

        df = self._frame()
        with exchange_width(4):
            got = grouped_agg(ray.data.from_pandas(df).repartition(9),
                              ["a", "b"], {"out": ("v", how)}).to_pandas()
        want = df.groupby(["a", "b"], as_index=False).agg(out=("v", how))
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)

    def test_grouped_apply_multi_column_key(self, exchange_width):
        import ray.data

        df = self._frame()

        def n_rows(d: pd.DataFrame) -> pd.DataFrame:
            return d.groupby(["a", "b"], as_index=False).size()

        with exchange_width(3):
            got = grouped_apply(ray.data.from_pandas(df).repartition(6),
                                ["a", "b"], n_rows).to_pandas()
        want = df.groupby(["a", "b"], as_index=False).size()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestOracleParitySubset:
    """Ray result vs DuckDB oracle."""

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_query_matches_oracle(self, con, name):
        res = entry.queries()[name](entry._ORACLE_SF_DIR)
        got = res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)
        want = con.execute(ORACLES[name]).fetchdf()
        got, want = _canon(got), _canon(want)
        assert list(got.columns) == list(want.columns)
        pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def test_partitions_for_adaptive_width(ray_session):
    import ray

    from post_ocr_corrector_ray.stages.shuffle import partitions_for

    # cluster-scaled: 2 per CPU (capped 256), never < 8
    cpus = int(ray.cluster_resources().get("CPU", 0))
    assert partitions_for() == max(8, min(2 * cpus, 256))


def test_map_groups_only_in_shuffle_and_commit():
    """Every keyed exchange of derived data goes through ``grouped_apply``
    (stages/shuffle.py); the store commit (state/lineage.py) is the one other
    Ray-level ``groupby().map_groups()``.  A third is a hand-rolled twin."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pat = re.compile(r"\.groupby\([^()]*\)\s*\.map_groups\(")
    paths = [os.path.join(root, "__ray_entry__.py"), os.path.join(root, "bench.py")]
    for top in ("post_ocr_corrector_ray", "scripts"):
        for d, _, files in os.walk(os.path.join(root, top)):
            paths += [os.path.join(d, f) for f in files if f.endswith(".py")]
    found = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            if pat.search(f.read()):
                found.add(os.path.relpath(path, root))
    assert found == {os.path.join("post_ocr_corrector_ray", "stages", "shuffle.py"),
                     os.path.join("post_ocr_corrector_ray", "state", "lineage.py")}


def test_exchange_width_has_one_owner():
    """``partitions_for()`` decides the width of every derived-data
    exchange.  Of the public functions in ``stages/`` and ``pipelines/``,
    only ``extract_correct`` takes ``num_partitions``: it is the
    committed store's layout, like that of the ``state/lineage.py`` store
    functions that ``stages.extract`` re-exports."""
    import importlib
    import inspect
    import pkgutil

    import post_ocr_corrector_ray.pipelines as pipelines
    import post_ocr_corrector_ray.stages as stages

    allowed = {"pipelines.extract_correct.extract_correct"}
    takes_width = set()
    for pkg in (stages, pipelines):
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{pkg.__name__}.{info.name}")
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_"):
                    continue
                if "num_partitions" not in inspect.signature(fn).parameters:
                    continue
                owner = fn.__module__.removeprefix("post_ocr_corrector_ray.")
                if owner != "state.lineage":
                    takes_width.add(f"{owner}.{name}")
    assert takes_width == allowed


# Options that no production caller passed, with the functions they left;
# ``None`` means no public function of the package may take it.
_REMOVED_OPTIONS = {
    "num_gpus": None, "salt": None, "noise_salt": None,
    "skip_empty_correct": None, "cer_col": None, "extra_hparams": None,
    "dictionary": {"model.artifacts.save_model_dir"},
    "seed": {"pipelines.training.epoch_feed"},
    "key_col": {"pipelines.training.epoch_feed", "pipelines.corpus.add_split_column",
                "sources.markup.markup_to_sentences_batch"},
    "messy_col": {"pipelines.training.epoch_feed"},
    "clean_col": {"pipelines.training.epoch_feed"},
    "batch_size": {"pipelines.training.training_feed", "model.neural.NeuralCorrectorModel.load",
                   "model.neural.NeuralCorrectorModel.__init__",
                   "model.neural.NeuralCorrectorModel.from_seed"},
    "epoch": {"pipelines.training.training_feed"},
    "good_chars": {"pipelines.training.documents_corpus",
                   "pipelines.documents.doc_mutilate"},
    "text_col": {"sources.markup.markup_to_sentences_batch"},
    "out_col": {"pipelines.corpus.add_split_column", "stages.noise.add_messy_column",
                "stages.correct.DictionaryCorrectorStage.__init__"},
    "resume": {"state.lineage.commit_by_key"},
    "stage_versions": {"state.lineage.commit_by_key"},
}
# API that only tests reached, and leftovers of the removed commands
_REMOVED_NAMES = [
    "model.artifacts.whitespace_indices", "model.artifacts.load_model_dir",
    "model.artifacts.load_hparams", "model.ckpt_compat.convert_to_model_dir",
    "model.ckpt_compat.params_to_state_dict", "model.ckpt_compat.write_fake_torch_ckpt",
    "model.dictionary.DictionaryCorrector.add_counts",
    "model.dictionary.DictionaryCorrector.prune",
    "model.dictionary.DictionaryCorrector._invalidate",
    "pipelines.training.iter_epoch", "state.lineage.read_output_ds",
    "pipelines.training._RANGE_PARTS", "pipelines.training._vocab",
    "pipelines.training.rank_and_batch",
    "model.neural.NeuralCorrectorModel.correct", "model.neural.NeuralCorrectorModel.ids_to_texts",
    "model.artifacts.HYPERPARAMS_FILE",
]


def _public_callables():
    """(dotted name below the package, function) for every public function
    and method defined in the package, ``__init__`` included."""
    import importlib
    import inspect
    import pkgutil

    import post_ocr_corrector_ray as pkg

    for info in pkgutil.walk_packages(pkg.__path__, pkg.__name__ + "."):
        mod = importlib.import_module(info.name)
        short = info.name.removeprefix(pkg.__name__ + ".")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", obj
            elif inspect.isclass(obj):
                for mname, m in vars(obj).items():
                    fn = getattr(m, "__func__", m)
                    if inspect.isfunction(fn) and (mname == "__init__"
                                                   or not mname.startswith("_")):
                        yield f"{short}.{name}.{mname}", fn


def test_removed_options_and_names_stay_gone():
    """No public package function takes an option that had one value in
    use, and the API that only tests reached does not resolve."""
    import importlib
    import inspect

    takes = sorted(
        f"{name}({param})" for name, fn in _public_callables()
        for param in inspect.signature(fn).parameters
        if param in _REMOVED_OPTIONS
        and (_REMOVED_OPTIONS[param] is None or name in _REMOVED_OPTIONS[param]))
    assert takes == []
    resolved = []
    for dotted in _REMOVED_NAMES:
        parts = dotted.split(".")
        mod = importlib.import_module("post_ocr_corrector_ray." + ".".join(parts[:2]))
        obj = mod
        for attr in parts[2:]:
            obj = getattr(obj, attr, None)
        if obj is not None:
            resolved.append(dotted)
    assert resolved == []
    assert not hasattr(entry, "_flagship_dict_corpus")


def test_every_file_write_goes_through_write_atomic():
    """No ``write_parquet`` call (Ray 2.49's default mode appends, so a rerun
    duplicated its output), and no ``open()`` in a write mode outside
    ``state.lineage.write_atomic``: each dataset is a committed store and
    each single file is written atomically."""
    import ast

    pkg = os.path.join(REPO, "post_ocr_corrector_ray")
    found = []
    for root, _, names in os.walk(pkg):
        for name in sorted(n for n in names if n.endswith(".py")):
            rel = os.path.relpath(os.path.join(root, name), REPO)
            with open(os.path.join(root, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            allowed = {id(n) for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef) and fn.name == "write_atomic"
                       and rel.endswith(os.path.join("state", "lineage.py"))
                       for n in ast.walk(fn)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) and node.func.attr == "write_parquet":
                    found.append(f"{rel}:{node.lineno} write_parquet")
                if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
                    continue
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                writes = not isinstance(mode, ast.Constant) or set(mode.value) & set("wax+")
                if writes and id(node) not in allowed:
                    found.append(f"{rel}:{node.lineno} open")
    assert found == []


_DIVERGENCE = ("Operator produced a RefBundle with a different schema than the "
               "previous one. Previous schema: PandasBlockSchema(names=['u'], "
               "types=[dtype('int64')]), new schema: {}. This may lead to "
               "unexpected behavior.")


@pytest.mark.parametrize("new_schema,kept", [
    ("PandasBlockSchema(names=[], types=[])", False),
    ("None", False),
    ("", False),
    ("PandasBlockSchema(names=['v'], types=[dtype('int64')])", True),
], ids=["empty_pandas", "none", "empty_string", "drift"])
def test_empty_schema_divergence_filter_selectivity(new_schema, kept):
    """The logger filter drops the schema-divergence warning only when the
    new schema is empty, in each of the three forms Ray prints it in (Ray's
    ``map_groups`` yields nothing for an empty sorted block).  Drift between
    two non-empty schemas still warns, and so does any other warning."""
    import logging

    from post_ocr_corrector_ray.stages.shuffle import _EmptySchemaDivergenceFilter

    f = _EmptySchemaDivergenceFilter()

    def rec(msg):
        return logging.LogRecord("x", logging.WARNING, "f", 1, msg, (), None)

    assert f.filter(rec(_DIVERGENCE.format(new_schema))) is kept
    assert f.filter(rec("some other warning")) is True


def test_registry_orders_oracle_backed_first():
    """No oracle-backed entry follows a no-oracle entry in ``queries()``."""
    tail_started = False
    for name in entry.queries():
        if name not in ORACLES:
            tail_started = True
        else:
            assert not tail_started, f"oracle-backed {name!r} after a no-oracle entry"


def test_bench_queries_are_registered():
    import bench

    assert set(bench.BENCH_QUERIES) <= set(entry.queries())


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_surface_resolves(monkeypatch):
    """The frozen benchmark in ``perfbench/`` imports and calls the package:
    its modules import, every ``lin.<name>`` and ``extract_mod.<name>`` it
    uses and every name it imports from the package exist, and
    ``extract_correct`` forwards the corrector options it passes.  An API
    cut that would break the benchmark fails here first."""
    import ast
    import importlib.util
    import inspect

    from post_ocr_corrector_ray.pipelines.extract_correct import correct_stage
    from post_ocr_corrector_ray.stages import extract as extract_mod
    from post_ocr_corrector_ray.state import lineage as lin

    bench_dir = os.path.join(REPO, "perfbench")
    monkeypatch.syspath_prepend(bench_dir)
    for name in ("gate", "workloads", "tracing"):
        importlib.import_module(name)
    missing = []
    for fname in sorted(os.listdir(bench_dir)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(bench_dir, fname), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("lin", "extract_mod")):
                owner = lin if node.value.id == "lin" else extract_mod
                if not hasattr(owner, node.attr):
                    missing.append(f"{fname}: {node.value.id}.{node.attr}")
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.startswith("post_ocr_corrector_ray")):
                mod = importlib.import_module(node.module)
                missing += [f"{fname}: {node.module}.{a.name}" for a in node.names
                            if not hasattr(mod, a.name)
                            and importlib.util.find_spec(f"{node.module}.{a.name}") is None]
    assert missing == []
    forwarded = inspect.signature(correct_stage).parameters
    assert {"batch_size", "concurrency", "alphabet", "seed", "hparams"} <= set(forwarded)


def _coverage_rows() -> list[str]:
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        section = f.read().split("## Coverage map", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("|")]


def test_every_query_has_a_coverage_row():
    named = {tok for row in _coverage_rows() for tok in re.findall(r"`([^`]+)`", row)}
    assert [name for name in entry.queries() if name not in named] == []


def test_coverage_rows_name_only_queries():
    """The reverse of the check above: a row may not name a registry entry
    that is gone."""
    named = {tok for row in _coverage_rows() for tok in re.findall(r"`([^`]+)`", row)
             if re.fullmatch(r"doc_\w+|flagship_\w+|training_feed", tok)}
    assert sorted(named - set(entry.queries())) == []


def test_coverage_paths_exist():
    paths = {p for row in _coverage_rows()
             for p in re.findall(r"\b(?:stages|pipelines)/\w+\.py", row)}
    assert paths
    assert sorted(p for p in paths
                  if not os.path.exists(os.path.join(REPO, "post_ocr_corrector_ray", p))) == []
