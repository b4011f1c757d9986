"""Hash join, exact distributed quantiles and global rank — the custom
operators Ray Data lacks (stages/joins.py, stages/quantiles.py).

Coverage the SQL-oracle gate doesn't reach: join semantics and key errors,
invariance to partition count and block layout, and quantile agreement with
a single-process sorted-array spec on random data."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from post_ocr_corrector_ray.stages.quantiles import exact_quantiles


@pytest.mark.usefixtures("ray_session")
class TestExactQuantiles:
    def test_matches_sorted_array_spec(self):
        import ray.data

        rng = np.random.default_rng(2)
        vals = rng.integers(0, 97, size=1777)
        ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
        qs = [0.0, 0.1, 0.5, 0.9, 0.999, 1.0]
        out = exact_quantiles(ds, "v", qs).to_pandas()
        sv = np.sort(vals)
        for q, v in zip(out["q"], out["value"]):
            assert v == sv[max(1, math.ceil(q * len(sv))) - 1]

    def test_nulls_ignored(self):
        import ray.data

        ds = ray.data.from_arrow(pa.table(
            {"v": pa.array([None, 5, None, 1, 9], pa.int64())}))
        out = exact_quantiles(ds, "v", [0.5]).to_pandas()
        assert out["value"].tolist() == [5]


@pytest.mark.usefixtures("ray_session")
class TestHashJoin:
    def _sides(self):
        import ray.data

        l = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 3, 4], pa.int64()),
            "lv": pa.array(["a", "b", "c", "d"], pa.string())}))
        r = ray.data.from_arrow(pa.table({
            "rk": pa.array([2, 2, 4, 9], pa.int64()),
            "rv": pa.array([20, 21, 40, 90], pa.int64())}))
        return l, r

    def test_inner_semi_anti(self):
        from post_ocr_corrector_ray.stages.joins import hash_join

        l, r = self._sides()
        inner = hash_join(l, r, on="k", right_on="rk", how="inner") \
            .to_pandas().sort_values(["k", "rv"]).reset_index(drop=True)
        assert inner[["k", "rv"]].values.tolist() == [[2, 20], [2, 21], [4, 40]]
        l, r = self._sides()
        semi = hash_join(l, r, on="k", right_on="rk", how="semi").to_pandas()
        assert sorted(semi["k"]) == [2, 4]
        assert list(semi.columns) == ["k", "lv"]      # right payload dropped
        l, r = self._sides()
        anti = hash_join(l, r, on="k", right_on="rk", how="anti").to_pandas()
        assert sorted(anti["k"]) == [1, 3]

    def test_full_and_right(self):
        from post_ocr_corrector_ray.stages.joins import hash_join

        l, r = self._sides()
        full = hash_join(l, r, on="k", right_on="rk", how="full") \
            .to_pandas().sort_values(["k", "rv"]).reset_index(drop=True)
        # matched 2,2,4 + left-only 1,3 + right-only 9
        assert sorted(full["k"].astype(int)) == [1, 2, 2, 3, 4, 9]
        only_r = full[full["k"] == 9]
        assert only_r["lv"].isna().all() and only_r["rv"].tolist() == [90.0]
        only_l = full[full["k"].isin([1, 3])]
        assert only_l["rv"].isna().all()
        l, r = self._sides()
        right = hash_join(l, r, on="k", right_on="rk", how="right") \
            .to_pandas().sort_values(["k", "rv"]).reset_index(drop=True)
        assert sorted(right["k"].astype(int)) == [2, 2, 4, 9]
        assert right[right["k"] == 9]["lv"].isna().all()
        # empty right: full keeps every left row
        l, r = self._sides()
        empty = r.filter(lambda row: False)
        kept = hash_join(l, empty, on="k", right_on="rk", how="full").to_pandas()
        assert sorted(kept["k"]) == [1, 2, 3, 4]

    def test_collision_refused(self):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        l = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                          "v": pa.array([1], pa.int64())}))
        r = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                          "v": pa.array([2], pa.int64())}))
        with pytest.raises(ValueError, match="collision"):
            hash_join(l, r, on="k", how="inner")
        # semi is fine: right payload is dropped before the union
        out = hash_join(l, r, on="k", how="semi").to_pandas()
        assert out["v"].tolist() == [1]


@pytest.mark.usefixtures("ray_session")
class TestGroupedQuantiles:
    def test_matches_per_group_sorted_spec(self):
        import ray.data

        from post_ocr_corrector_ray.stages.quantiles import (
            grouped_exact_quantiles)

        rng = np.random.default_rng(3)
        grp = rng.choice(["a", "b", "c"], size=900)
        val = rng.integers(0, 40, size=900)
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array(grp), "v": pa.array(val, pa.int64())}))
        out = grouped_exact_quantiles(ds, "v", "g", [0.25, 0.5, 0.75]) \
            .to_pandas()
        for g in "abc":
            sv = np.sort(val[grp == g])
            sub = out[out.g == g]
            for q, v in zip(sub["q"], sub["value"]):
                assert v == sv[max(1, math.ceil(q * len(sv))) - 1]


@pytest.mark.usefixtures("ray_session")
class TestGlobalRank:
    def test_matches_pandas_row_number(self):
        import ray.data
        from post_ocr_corrector_ray.stages.quantiles import global_rank

        rng = np.random.default_rng(11)
        df = pd.DataFrame({"id": np.arange(3000, dtype=np.int64),
                           "v": rng.integers(0, 40, 3000).astype(np.int64)})
        for parts in (4, 9):
            got = global_rank(ray.data.from_pandas(df), "v", "id",
                              num_partitions=parts).to_pandas()
            got = got.sort_values("id").reset_index(drop=True)
            want = df.sort_values(["v", "id"]).reset_index(drop=True)
            want["rank"] = np.arange(1, len(want) + 1, dtype=np.int64)
            want = want.rename(columns={"id": "id", "v": "v"}) \
                .sort_values("id").reset_index(drop=True)
            assert got["rank"].tolist() == want["rank"].tolist()

    def test_rank_is_permutation(self):
        import ray.data
        from post_ocr_corrector_ray.stages.quantiles import global_rank

        df = pd.DataFrame({"id": np.arange(500, dtype=np.int64),
                           "v": np.zeros(500, dtype=np.int64)})  # one hot key
        got = global_rank(ray.data.from_pandas(df), "v", "id").to_pandas()
        assert sorted(got["rank"]) == list(range(1, 501))
        assert got.sort_values("id")["rank"].tolist() == list(range(1, 501))

    def test_tie_cols_order(self):
        import ray.data
        from post_ocr_corrector_ray.stages.quantiles import global_rank

        # coarse value 0 everywhere; tie column must drive the in-group order
        df = pd.DataFrame({"id": np.arange(6, dtype=np.int64),
                           "v": np.zeros(6, dtype=np.int64),
                           "t": ["c", "a", "b", "a", "d", "b"]})
        got = global_rank(ray.data.from_pandas(df), "v", "id",
                          tie_cols=["t"], num_partitions=4).to_pandas()
        want = df.sort_values(["v", "t", "id"]).reset_index(drop=True)
        want["rank"] = np.arange(1, 7, dtype=np.int64)
        merged = got.merge(want[["id", "rank"]], on="id",
                           suffixes=("_got", "_want"))
        assert merged["rank_got"].tolist() == merged["rank_want"].tolist()


@pytest.mark.usefixtures("ray_session")
class TestShuffleOrder:
    def test_bijection_and_determinism(self):
        from post_ocr_corrector_ray.pipelines.documents import doc_shuffle_order

        sf_dir = "/root/testdata/sf0.001"
        a = doc_shuffle_order(sf_dir).to_pandas().sort_values("doc_id")
        n = len(a)
        assert sorted(a["shuffle_rank"]) == list(range(1, n + 1))
        # genuinely shuffled: not the identity order
        assert a["shuffle_rank"].tolist() != list(range(1, n + 1))
        b = doc_shuffle_order(sf_dir).to_pandas().sort_values("doc_id")
        assert a["shuffle_rank"].tolist() == b["shuffle_rank"].tolist()


@pytest.mark.usefixtures("ray_session")
class TestHashJoinKeyErrors:
    def test_missing_left_key_raises(self):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        l = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                          "lv": pa.array([10, 20], pa.int64())}))
        r = ray.data.from_arrow(pa.table({"k": pa.array([2], pa.int64())}))
        with pytest.raises(ValueError, match="not in left schema"):
            hash_join(l, r, on="typo_key", how="inner")

    def test_missing_right_key_raises(self):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        l = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
        r = ray.data.from_arrow(pa.table({"rk": pa.array([2], pa.int64()),
                                          "rv": pa.array([9], pa.int64())}))
        with pytest.raises(ValueError, match="not in right schema"):
            hash_join(l, r, on="k", right_on="typo_key", how="semi")

    def test_schemaless_empty_left_still_short_circuits(self):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        # a grouped aggregate over zero rows yields a dataset with no schema;
        # the early-out must keep resolving that without an exchange
        l = ray.data.from_arrow(
            pa.table({"k": pa.array([], pa.int64())})).filter(lambda r: False)
        r = ray.data.from_arrow(pa.table({"k": pa.array([2], pa.int64())}))
        assert hash_join(l, r, on="k", how="inner").count() == 0


@pytest.mark.usefixtures("ray_session")
class TestGlobalRankNullKeys:
    def test_null_keys_dropped_consistently(self):
        import ray.data

        from post_ocr_corrector_ray.stages.quantiles import global_rank

        t = pa.table({"id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                      "v": pa.array([10, None, 5, None, 10], pa.int64())})
        got = global_rank(ray.data.from_arrow(t), "v", "id",
                          num_partitions=3).to_pandas()
        got = got.sort_values("id").reset_index(drop=True)
        # null-key rows are excluded from BOTH passes (no crash, no rank)
        assert got["id"].tolist() == [1, 3, 5]
        assert got["rank"].tolist() == [2, 1, 3]


def _rows(df: pd.DataFrame) -> list[str]:
    """Order-free, dtype-free row multiset: numbers as float, nulls as None
    (outer joins carry the padded side's integers as float64)."""
    def cell(v):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return None
        return float(v) if isinstance(v, (int, float, np.number)) else v

    df = df[sorted(df.columns)]
    return sorted(repr(tuple(cell(v) for v in row))
                  for row in df.itertuples(index=False))


@pytest.mark.usefixtures("ray_session")
class TestHashJoinMatchesPandas:
    """Many-to-many keys on both sides, unmatched keys on both sides: every
    ``how`` equals the pandas merge (semi/anti: the isin filter) at one
    partition and at several."""

    @pytest.mark.parametrize("parts", [1, 6])
    @pytest.mark.parametrize("how", ["inner", "left", "right", "full",
                                     "semi", "anti"])
    def test_matches_pandas_spec(self, how, parts):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        rng = np.random.default_rng(21)
        left = pd.DataFrame({"k": rng.integers(0, 40, 200).astype("int64"),
                             "lv": [f"l{i}" for i in range(200)]})
        right = pd.DataFrame({"rk": rng.integers(20, 60, 120).astype("int64"),
                              "rv": np.arange(120, dtype="int64") * 7})
        got = hash_join(ray.data.from_pandas(left).repartition(5),
                        ray.data.from_pandas(right).repartition(3),
                        on="k", right_on="rk", how=how,
                        num_partitions=parts).to_pandas()
        if how in ("semi", "anti"):
            hit = left["k"].isin(right["rk"])
            want = left[hit if how == "semi" else ~hit]
        else:
            want = left.merge(right.rename(columns={"rk": "k"}), on="k",
                              how="outer" if how == "full" else how)
        assert sorted(got.columns) == sorted(want.columns)
        assert _rows(got) == _rows(want)


@pytest.mark.usefixtures("ray_session")
class TestExactQuantilesLayoutInvariance:
    @pytest.mark.parametrize("parts", [1, 3, 16])
    def test_ties_and_negatives_match_spec(self, parts):
        import ray.data

        rng = np.random.default_rng(8)
        vals = np.concatenate([np.full(500, -3), rng.integers(-50, 50, 700),
                               np.full(300, 49)]).astype(np.int64)
        rng.shuffle(vals)
        ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})).repartition(7)
        qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]
        out = exact_quantiles(ds, "v", qs, num_partitions=parts).to_pandas()
        sv = np.sort(vals)
        want = [sv[max(1, math.ceil(q * len(sv))) - 1] for q in qs]
        assert out["q"].tolist() == qs
        assert out["value"].tolist() == want

    @pytest.mark.parametrize("parts", [1, 5])
    def test_grouped_matches_spec(self, parts):
        import ray.data

        from post_ocr_corrector_ray.stages.quantiles import grouped_exact_quantiles

        rng = np.random.default_rng(17)
        grp = rng.choice(["x", "y", "z", "solo"], p=[0.4, 0.4, 0.19, 0.01],
                         size=1500)
        val = rng.integers(-20, 20, size=1500)
        ds = ray.data.from_arrow(pa.table({"g": pa.array(grp),
                                           "v": pa.array(val, pa.int64())}))
        qs = [0.0, 0.5, 1.0]
        out = grouped_exact_quantiles(ds, "v", "g", qs,
                                      num_partitions=parts).to_pandas()
        assert sorted(out["g"].unique()) == sorted(set(grp))
        for g, sub in out.groupby("g"):
            sv = np.sort(val[grp == g])
            want = [sv[max(1, math.ceil(q * len(sv))) - 1] for q in qs]
            assert sub.sort_values("q")["value"].tolist() == want, g


@pytest.mark.usefixtures("ray_session")
class TestGlobalRankDistributions:
    """ROW_NUMBER() OVER (ORDER BY v, id) on shapes that stress the
    histogram offsets: all-distinct values, a few huge ties, negatives."""

    @pytest.mark.parametrize("shape", ["distinct", "few_values", "negative"])
    def test_matches_sort_spec(self, shape):
        import ray.data

        from post_ocr_corrector_ray.stages.quantiles import global_rank

        rng = np.random.default_rng(31)
        n = 1200
        v = {"distinct": rng.permutation(n) * 3,
             "few_values": rng.integers(0, 3, n),
             "negative": rng.integers(-1000, 0, n)}[shape].astype(np.int64)
        df = pd.DataFrame({"id": rng.permutation(n).astype(np.int64), "v": v})
        got = global_rank(ray.data.from_pandas(df).repartition(6), "v", "id",
                          num_partitions=5).to_pandas()
        want = df.sort_values(["v", "id"]).reset_index(drop=True)
        want["rank"] = np.arange(1, n + 1, dtype=np.int64)
        merged = got.merge(want, on="id", suffixes=("", "_want"))
        assert len(merged) == n
        assert (merged["rank"] == merged["rank_want"]).all()
        assert (merged["v"] == merged["v_want"]).all()
