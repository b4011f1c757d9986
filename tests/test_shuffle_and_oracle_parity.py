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
from post_ocr_corrector_ray.stages.shuffle import distinct_rows, grouped_agg, grouped_apply

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

    def test_distinct_rows_deterministic_winner(self):
        import ray.data

        df = pd.DataFrame({"k": [1, 1, 2, 2, 3], "v": [9, 3, 5, 5, 1]})
        got = distinct_rows(ray.data.from_pandas(df), ["k"]).to_pandas()
        # winner per key = first row after sort by all columns → min (k, v)
        want = pd.DataFrame({"k": [1, 2, 3], "v": [3, 5, 1]})
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
    def test_grouped_agg_each_combinable_agg(self, how):
        import ray.data

        df = self._frame()
        got = grouped_agg(ray.data.from_pandas(df).repartition(9), ["a", "b"],
                          {"out": ("v", how)}, num_partitions=4).to_pandas()
        want = df.groupby(["a", "b"], as_index=False).agg(out=("v", how))
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)

    @pytest.mark.parametrize("parts", [1, 7])
    def test_distinct_rows_layout_invariant(self, parts):
        import ray.data

        df = self._frame().fillna(0.0)
        got = distinct_rows(ray.data.from_pandas(df).repartition(5), ["a", "b"],
                            num_partitions=parts).to_pandas()
        want = df.sort_values(["a", "b", "v"]).drop_duplicates(subset=["a", "b"])
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)

    def test_grouped_apply_multi_column_key(self):
        import ray.data

        df = self._frame()

        def n_rows(d: pd.DataFrame) -> pd.DataFrame:
            return d.groupby(["a", "b"], as_index=False).size()

        got = grouped_apply(ray.data.from_pandas(df).repartition(6), ["a", "b"],
                            n_rows, num_partitions=3).to_pandas()
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

    # cluster-scaled: 2 per CPU (capped 256), never < floor
    cpus = int(ray.cluster_resources().get("CPU", 0))
    assert partitions_for() == max(8, min(2 * cpus, 256))
    # data-scaled: ~256 MB per partition dominates when input is large
    assert partitions_for(size_bytes=100 << 30) == (100 << 30) // (256 << 20)
    assert partitions_for(rows=1 << 27) == (1 << 27) // (1 << 21)
    # cap bounds runaway widths
    assert partitions_for(size_bytes=1 << 50, cap=8192) == 8192
    # explicit floor respected
    assert partitions_for(floor=32) >= 32


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
