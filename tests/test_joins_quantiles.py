"""Hash join, exact distributed quantiles, global rank and the KLL sketch —
the custom operators Ray Data lacks (stages/joins.py, stages/quantiles.py).

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
class TestStratifiedSample:
    def test_rates_and_layout_invariance(self):
        import ray.data

        from post_ocr_corrector_ray.stages.sampling import stratified_sample

        n = 4000
        t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                      "lang": pa.array(["en" if i % 2 else "de"
                                        for i in range(n)], pa.string())})
        kw = dict(fracs={"en": 0.25}, default_frac=1.0,
                  strat_col="lang", id_col="doc_id")
        a = stratified_sample(ray.data.from_arrow(t), **kw).to_pandas()
        # de untouched, en ~25% (binomial tolerance)
        assert (a[a.lang == "de"].shape[0]) == n // 2
        en = a[a.lang == "en"].shape[0]
        assert 0.18 * n / 2 < en < 0.32 * n / 2
        # content-keyed: identical keep-set under a different block layout
        b = stratified_sample(
            ray.data.from_arrow(t).repartition(13), **kw).to_pandas()
        assert sorted(a["doc_id"]) == sorted(b["doc_id"])


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


@pytest.mark.usefixtures("ray_session")
class TestKllSketch:
    def test_rank_error_bound_vs_exact(self):
        """KLL sketch quantiles land within 1.5% rank error of the exact
        sorted-array answer on a heavy-tailed continuous distribution."""
        import ray.data

        from post_ocr_corrector_ray.stages.quantiles import sketch_quantiles

        rng = np.random.default_rng(5)
        x = rng.lognormal(0.0, 2.0, 120_000)
        ds = ray.data.from_arrow(pa.table({"v": pa.array(x, pa.float64())})) \
            .repartition(16)
        got = sketch_quantiles(ds, "v", [0.01, 0.25, 0.5, 0.9, 0.99], k=256) \
            .to_pandas()
        xs = np.sort(x)
        for r in got.itertuples():
            rank_err = abs(np.searchsorted(xs, r.value) / len(xs) - r.q)
            assert rank_err < 0.015, (r.q, rank_err)

    def test_merge_equals_single_stream(self):
        """Mergeability: feeding two halves into two sketches then merging
        estimates as well as one sketch fed everything."""
        from post_ocr_corrector_ray.stages.quantiles import KllSketch

        rng = np.random.default_rng(9)
        x = rng.normal(size=50_000)
        a, b = KllSketch(256), KllSketch(256)
        a.update(x[:25_000]); b.update(x[25_000:])
        a.merge(b)
        assert a.n == 50_000
        xs = np.sort(x)
        for q in (0.1, 0.5, 0.9):
            err = abs(np.searchsorted(xs, a.quantile(q)) / len(xs) - q)
            assert err < 0.02, (q, err)

    def test_transport_roundtrip(self):
        from post_ocr_corrector_ray.stages.quantiles import KllSketch

        s = KllSketch(64)
        s.update(np.arange(10_000, dtype=np.float64))
        t = s.to_table()
        r = KllSketch.from_rows(t.column("level").to_numpy(),
                                t.column("value").to_numpy(),
                                int(t.column("n")[0].as_py()), k=64)
        assert r.n == s.n
        for q in (0.25, 0.5, 0.75):
            assert r.quantile(q) == s.quantile(q)

    def test_nan_and_empty(self):
        import ray.data

        from post_ocr_corrector_ray.stages.quantiles import sketch_quantiles

        ds = ray.data.from_arrow(pa.table({
            "v": pa.array([float("nan")] * 5 + [1.0, 2.0, 3.0], pa.float64())}))
        got = sketch_quantiles(ds, "v", [0.5]).to_pandas()
        assert got["value"].iloc[0] in (1.0, 2.0, 3.0)
        empty = ray.data.from_arrow(pa.table({"v": pa.array([], pa.float64())}))
        out = sketch_quantiles(empty, "v", [0.5]).to_pandas()
        assert np.isnan(out["value"].iloc[0])

    def test_grouped_sketch_rank_error_vs_exact_per_group(self):
        """Per-key KLL: every group's sketch quantile lands within 2% rank
        error of that group's OWN sorted values — including a small group
        (exactly representable) next to two big skewed ones."""
        import ray.data

        from post_ocr_corrector_ray.stages.quantiles import (
            grouped_sketch_quantiles)

        rng = np.random.default_rng(7)
        parts = {
            "big_lognorm": rng.lognormal(0.0, 2.0, 60_000),
            "big_uniform": rng.uniform(-5.0, 5.0, 40_000),
            "tiny": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }
        keys = np.concatenate([np.repeat(k, len(v)) for k, v in parts.items()])
        vals = np.concatenate(list(parts.values()))
        perm = rng.permutation(len(vals))       # interleave groups across blocks
        ds = ray.data.from_arrow(pa.table({
            "key": pa.array(keys[perm]),
            "v": pa.array(vals[perm], pa.float64())})).repartition(16)
        got = grouped_sketch_quantiles(ds, "key", "v",
                                       [0.1, 0.5, 0.9], k=256).to_pandas()
        assert sorted(got["key"].unique()) == sorted(parts)
        for r in got.itertuples():
            xs = np.sort(parts[r.key])
            rank_err = abs(np.searchsorted(xs, r.value) / len(xs) - r.q)
            tol = 0.02 if len(xs) > 1000 else 0.21   # tiny group: exact ±1 item
            assert rank_err <= tol, (r.key, r.q, rank_err)
        # the 5-item group never compacts → its median is exactly 3.0
        tiny_med = got[(got.key == "tiny") & (got.q == 0.5)]["value"].iloc[0]
        assert tiny_med == 3.0

    def test_grouped_sketch_exchanged_matches_bound_and_small_exact(self):
        """The key-partitioned exchange variant (unbounded key cardinality)
        holds the same per-group rank-error bound, and on a never-compacting
        input equals the driver-merge variant exactly."""
        import ray.data

        from post_ocr_corrector_ray.stages.quantiles import (
            grouped_sketch_quantiles, grouped_sketch_quantiles_exchanged)

        rng = np.random.default_rng(13)
        parts = {"a": rng.lognormal(0.0, 1.5, 30_000),
                 "b": rng.normal(size=20_000)}
        keys = np.concatenate([np.repeat(k, len(v)) for k, v in parts.items()])
        vals = np.concatenate(list(parts.values()))
        perm = rng.permutation(len(vals))
        ds = ray.data.from_arrow(pa.table({
            "key": pa.array(keys[perm]),
            "v": pa.array(vals[perm], pa.float64())})).repartition(8)
        got = grouped_sketch_quantiles_exchanged(
            ds, "key", "v", [0.1, 0.5, 0.9], k=256,
            num_partitions=4).to_pandas()
        assert len(got) == 6
        for r in got.itertuples():
            xs = np.sort(parts[r.key])
            rank_err = abs(np.searchsorted(xs, r.value) / len(xs) - r.q)
            assert rank_err <= 0.02, (r.key, r.q, rank_err)
        # small input (< k values per key): no compaction anywhere → the
        # exchange and driver variants are EXACTLY equal
        small = ray.data.from_arrow(pa.table({
            "key": pa.array(["x"] * 40 + ["y"] * 30),
            "v": pa.array(np.arange(70, dtype=np.float64))})).repartition(4)
        a = grouped_sketch_quantiles(small, "key", "v",
                                     [0.25, 0.5, 0.75]).to_pandas()
        b = grouped_sketch_quantiles_exchanged(
            small, "key", "v", [0.25, 0.5, 0.75],
            num_partitions=3).to_pandas() \
            .sort_values(["key", "q"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            a.sort_values(["key", "q"]).reset_index(drop=True), b)

    def test_grouped_sketch_empty_and_null_keys(self):
        import ray.data

        from post_ocr_corrector_ray.stages.quantiles import (
            grouped_sketch_quantiles)

        empty = ray.data.from_arrow(pa.table({
            "key": pa.array([], pa.string()),
            "v": pa.array([], pa.float64())}))
        out = grouped_sketch_quantiles(empty, "key", "v", [0.5]).to_pandas()
        assert len(out) == 0


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
