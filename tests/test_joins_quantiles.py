"""Hash join — the co-partitioned semi / anti filter Ray Data lacks
(stages/joins.py).

Coverage the SQL-oracle gate doesn't reach: filter semantics and key
errors, and agreement with the pandas ``isin`` filter at one partition and
at several."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
class TestHashJoin:
    def _sides(self):
        import ray.data

        l = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 3, 4], pa.int64()),
            "lv": pa.array(["a", "b", "c", "d"], pa.string())}))
        r = ray.data.from_arrow(pa.table({
            "k": pa.array([2, 2, 4, 9], pa.int64()),
            "rv": pa.array([20, 21, 40, 90], pa.int64())}))
        return l, r

    def test_inner_semi_anti(self):
        from post_ocr_corrector_ray.stages.joins import hash_join

        l, r = self._sides()
        semi = hash_join(l, r, on="k", how="semi").to_pandas()
        assert sorted(semi["k"]) == [2, 4]
        assert list(semi.columns) == ["k", "lv"]      # right payload dropped
        l, r = self._sides()
        anti = hash_join(l, r, on="k", how="anti").to_pandas()
        assert sorted(anti["k"]) == [1, 3]


@pytest.mark.usefixtures("ray_session")
class TestHashJoinKeyErrors:
    def test_missing_left_key_raises(self):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        l = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                          "lv": pa.array([10, 20], pa.int64())}))
        r = ray.data.from_arrow(pa.table({"k": pa.array([2], pa.int64())}))
        with pytest.raises(ValueError, match="not in left schema"):
            hash_join(l, r, on="typo_key", how="semi")

    def test_missing_right_key_raises(self):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        l = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
        r = ray.data.from_arrow(pa.table({"rk": pa.array([2], pa.int64()),
                                          "rv": pa.array([9], pa.int64())}))
        with pytest.raises(ValueError, match="not in right schema"):
            hash_join(l, r, on="k", how="semi")

    def test_schemaless_empty_left_still_short_circuits(self):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        # a grouped aggregate over zero rows yields a dataset with no schema;
        # the early-out must keep resolving that without an exchange
        l = ray.data.from_arrow(
            pa.table({"k": pa.array([], pa.int64())})).filter(lambda r: False)
        r = ray.data.from_arrow(pa.table({"k": pa.array([2], pa.int64())}))
        assert hash_join(l, r, on="k", how="semi").count() == 0

    @pytest.mark.parametrize("how", ["inner", "left", "right", "full"])
    def test_only_semi_and_anti(self, how):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        l = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
        r = ray.data.from_arrow(pa.table({"k": pa.array([2], pa.int64())}))
        with pytest.raises(ValueError, match="unsupported how"):
            hash_join(l, r, on="k", how=how)


@pytest.mark.usefixtures("ray_session")
class TestHashJoinMatchesPandas:
    """Many-to-many keys on both sides, unmatched keys on both sides: the
    filter equals the pandas ``isin`` filter at one partition and at
    several."""

    @pytest.mark.parametrize("parts", [1, 6])
    @pytest.mark.parametrize("how", ["semi", "anti"])
    def test_matches_pandas_spec(self, how, parts, exchange_width):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        rng = np.random.default_rng(21)
        left = pd.DataFrame({"k": rng.integers(0, 40, 200).astype("int64"),
                             "lv": [f"l{i}" for i in range(200)]})
        right = pd.DataFrame({"k": rng.integers(20, 60, 120).astype("int64"),
                              "rv": np.arange(120, dtype="int64") * 7})
        with exchange_width(parts):
            got = hash_join(ray.data.from_pandas(left).repartition(5),
                            ray.data.from_pandas(right).repartition(3),
                            on="k", how=how).to_pandas()
        hit = left["k"].isin(right["k"])
        want = left[hit if how == "semi" else ~hit]
        assert list(got.columns) == list(want.columns)
        assert sorted(got.itertuples(index=False)) == \
            sorted(want.itertuples(index=False))
