"""Hash join — the custom operator Ray Data lacks (stages/joins.py).

Coverage the SQL-oracle gate doesn't reach: join semantics and key errors,
and agreement with the pandas merge at one partition and at several."""

import math

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
