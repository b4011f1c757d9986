"""LEFT hash-join semantics against a pandas merge."""

import pandas as pd
import pytest

def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
class TestLeftJoin:
    def test_left_join_semantics(self):
        import ray.data

        from post_ocr_corrector_ray.stages.joins import hash_join

        l = pd.DataFrame({"k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"]})
        r = pd.DataFrame({"k": [2, 4, 5], "rv": [20, 40, 50]})
        got = hash_join(ray.data.from_pandas(l), ray.data.from_pandas(r),
                        on="k", how="left").to_pandas()
        want = l.merge(r, on="k", how="left")
        g = _canon(got)
        w = _canon(want)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)
        # unmatched rows null-pad; right ints stay float64 (engine contract)
        assert got["rv"].isna().sum() == 2
        assert got["rv"].dtype == "float64"
