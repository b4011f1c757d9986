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
