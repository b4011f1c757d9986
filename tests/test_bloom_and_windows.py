"""Bloom runtime filter, Q13 histogram, and broadcast z-score window.

Parity tests mirror the driver gate at sf0.001; the bloom stage gets its own
property checks (no false negatives; bounded false-positive rate).
"""

import duckdb
import numpy as np
import pandas as pd
import pytest

from post_ocr_corrector_ray.stages.bloom import (
    _bitmap_from_keys,
    _probe_positions,
    _splitmix64,
)

SF = "/root/testdata/sf0.001"
TABLES = "customer orders events"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES.split():
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


class TestBloomKernels:
    def test_splitmix_deterministic_and_diffuse(self):
        x = np.arange(1000, dtype=np.uint64)
        a, b = _splitmix64(x), _splitmix64(x)
        assert (a == b).all()
        assert len(np.unique(a)) == 1000  # injective on this range

    def test_no_false_negatives(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**40, 5000).astype(np.int64)
        words = _bitmap_from_keys(keys, 1 << 20, 4)
        pos = _probe_positions(keys, 1 << 20, 4)
        bit = (words[pos >> 6] >> (pos & np.int64(63)).astype(np.uint64)) & np.uint64(1)
        assert bit.all()

    def test_false_positive_rate_bounded(self):
        rng = np.random.default_rng(8)
        member = rng.integers(0, 2**40, 5000).astype(np.int64)
        words = _bitmap_from_keys(member, 1 << 20, 4)
        probe = rng.integers(2**41, 2**42, 20000).astype(np.int64)  # disjoint
        pos = _probe_positions(probe, 1 << 20, 4)
        bit = (words[pos >> 6] >> (pos & np.int64(63)).astype(np.uint64)) & np.uint64(1)
        fp = bit.all(axis=1).mean()
        # n=5000 keys, m=2^20 bits, k=4 → theoretical fp ≈ 1.2e-6
        assert fp < 1e-3


@pytest.mark.usefixtures("ray_session")
class TestOracleParity:
    def test_customer_order_dist(self, con):
        from post_ocr_corrector_ray.pipelines.relational import customer_order_dist

        got = customer_order_dist(SF).to_pandas()
        want = con.execute("""
            SELECT CAST(c_count AS BIGINT) AS c_count,
                   CAST(count(*) AS BIGINT) AS custdist
            FROM (SELECT c.c_custkey, count(o.o_orderkey) AS c_count
                  FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
                  GROUP BY c.c_custkey)
            GROUP BY c_count""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        assert (got["custdist"] > 0).all()

    def test_bloom_semi_join(self, con):
        from post_ocr_corrector_ray.pipelines.relational import (
            customers_with_events_bloom,
        )

        got = customers_with_events_bloom(SF).to_pandas()
        want = con.execute("""
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey IN (SELECT user_id FROM events)""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)

    def test_zscore_bit_identical(self, con):
        from post_ocr_corrector_ray.pipelines.relational import events_value_zscore

        got = events_value_zscore(SF).to_pandas()
        want = con.execute("""
            WITH x AS (SELECT event_id, event_type,
                              CAST(round(value*100) AS BIGINT) AS x
                       FROM events),
            m AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS sx,
                         CAST(sum(x*x) AS BIGINT) AS sxx
                  FROM x GROUP BY event_type)
            SELECT x.event_id, x.event_type,
                   (CAST(x.x AS DOUBLE) - CAST(m.sx AS DOUBLE)/CAST(m.n AS DOUBLE))
                   / sqrt((CAST(m.n AS DOUBLE)*CAST(m.sxx AS DOUBLE)
                           - CAST(m.sx AS DOUBLE)*CAST(m.sx AS DOUBLE))
                          / (CAST(m.n AS DOUBLE)*(CAST(m.n AS DOUBLE)-1)))
                   AS z_value
            FROM x JOIN m USING (event_type)""").fetchdf()
        g = _canon(got).reset_index(drop=True)
        w = _canon(want).reset_index(drop=True)
        # exact bit identity on the double column (the parity discipline)
        assert (g["z_value"].to_numpy().tobytes()
                == w["z_value"].to_numpy().tobytes())
        pd.testing.assert_frame_equal(g.drop(columns="z_value"),
                                      w.drop(columns="z_value"),
                                      check_dtype=False)

    def test_zscore_is_standardized(self):
        from post_ocr_corrector_ray.pipelines.relational import events_value_zscore

        df = events_value_zscore(SF).to_pandas()
        g = df.groupby("event_type")["z_value"]
        assert np.allclose(g.mean(), 0.0, atol=1e-9)
        assert np.allclose(g.std(ddof=1), 1.0, atol=1e-9)


@pytest.mark.usefixtures("ray_session")
class TestFunnelCubeAnti:
    def test_bloom_routed_anti_join(self, con):
        from post_ocr_corrector_ray.pipelines.relational import (
            customers_without_events,
        )

        got = customers_without_events(SF).to_pandas()
        want = con.execute("""
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (SELECT user_id FROM events)""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)

    def test_events_funnel(self, con):
        from post_ocr_corrector_ray.pipelines.relational import events_funnel

        got = events_funnel(SF).to_pandas()
        want = con.execute("""
            WITH m AS (SELECT user_id,
                              min(CASE WHEN event_type='view' THEN ts END) AS t1,
                              min(CASE WHEN event_type='click' THEN ts END) AS t2,
                              min(CASE WHEN event_type='purchase' THEN ts END) AS t3
                       FROM events GROUP BY user_id),
            d AS (SELECT CASE WHEN t1 IS NULL THEN 0
                              WHEN t2 IS NULL OR t2 <= t1 THEN 1
                              WHEN t3 IS NULL OR t3 <= t2 THEN 2
                              ELSE 3 END AS depth FROM m),
            s(step, step_name) AS (VALUES (1,'view'),(2,'click'),(3,'purchase'))
            SELECT CAST(s.step AS BIGINT) AS step, s.step_name,
                   CAST(count(d.depth) AS BIGINT) AS n_users
            FROM s LEFT JOIN d ON d.depth >= s.step
            GROUP BY s.step, s.step_name""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        # funnel counts are monotonically non-increasing by construction
        srt = got.sort_values("step")["n_users"].to_numpy()
        assert (np.diff(srt) <= 0).all()

    def test_supplier_counts_cube(self, con):
        from post_ocr_corrector_ray.pipelines.relational import supplier_counts_cube

        got = supplier_counts_cube(SF).to_pandas()
        want = con.execute("""
            SELECT COALESCE(r_name,'ALL') AS region_name,
                   COALESCE(n_name,'ALL') AS nation_name,
                   CAST(count(*) AS BIGINT) AS n_suppliers
            FROM read_parquet('/root/testdata/sf0.001/supplier.parquet') s
            JOIN read_parquet('/root/testdata/sf0.001/nation.parquet') n
              ON s.s_nationkey = n.n_nationkey
            JOIN read_parquet('/root/testdata/sf0.001/region.parquet') r
              ON n.n_regionkey = r.r_regionkey
            GROUP BY CUBE(r_name, n_name)""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        # grand total row equals the sum of the leaf level
        leaf = got[(got.region_name != "ALL") & (got.nation_name != "ALL")]
        tot = got[(got.region_name == "ALL") & (got.nation_name == "ALL")]
        assert int(tot["n_suppliers"].iloc[0]) == int(leaf["n_suppliers"].sum())


@pytest.mark.usefixtures("ray_session")
class TestPmiHistLatestRevenue:
    def test_doc_bigram_pmi(self):
        import duckdb

        from post_ocr_corrector_ray.pipelines.documents import doc_bigram_pmi

        got = doc_bigram_pmi(SF).to_pandas()
        c = duckdb.connect()
        c.execute("PRAGMA threads=2")
        c.execute(f"CREATE VIEW documents AS SELECT * FROM "
                  f"read_parquet('{SF}/documents.parquet')")
        want = c.execute(r"""
            WITH toks AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'),
                                         x -> x <> '') AS l FROM documents),
            bi AS (SELECT l[i] AS w1, l[i + 1] AS w2
                   FROM toks, LATERAL (SELECT unnest(range(1, len(l))) AS i) r),
            uni AS (SELECT unnest(l) AS token FROM toks),
            uc AS (SELECT token, CAST(count(*) AS BIGINT) AS c
                   FROM uni GROUP BY token),
            bc AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c_xy
                   FROM bi GROUP BY w1, w2),
            tot AS (SELECT CAST((SELECT count(*) FROM uni) AS DOUBLE) AS t_uni,
                           CAST((SELECT count(*) FROM bi) AS DOUBLE) AS t_bi)
            SELECT bc.w1, bc.w2, bc.c_xy,
                   round(ln((CAST(bc.c_xy AS DOUBLE) / t_bi)
                            / ((CAST(u1.c AS DOUBLE) / t_uni)
                               * (CAST(u2.c AS DOUBLE) / t_uni))), 6) AS pmi
            FROM bc JOIN uc u1 ON bc.w1 = u1.token
            JOIN uc u2 ON bc.w2 = u2.token
            CROSS JOIN tot WHERE bc.c_xy >= 5""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)

    def test_events_latest_per_user(self, con):
        from post_ocr_corrector_ray.pipelines.relational import (
            events_latest_per_user,
        )

        got = events_latest_per_user(SF).to_pandas()
        want = con.execute("""
            SELECT event_id, user_id, event_type, ts, value
            FROM (SELECT e.*, row_number() OVER (
                      PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
                  FROM events e) WHERE rn = 1""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        assert got["user_id"].is_unique

    def test_events_value_histogram(self, con):
        from post_ocr_corrector_ray.pipelines.relational import (
            events_value_histogram,
        )

        got = events_value_histogram(SF).to_pandas()
        want = con.execute("""
            SELECT bin, bin * 10.0 AS lo, CAST(count(*) AS BIGINT) AS n
            FROM (SELECT CAST(floor(value / 10.0) AS BIGINT) AS bin FROM events)
            GROUP BY bin""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        # histogram covers every event exactly once
        total = con.execute("SELECT count(*) FROM events").fetchone()[0]
        assert int(got["n"].sum()) == total

    def test_revenue_by_nation(self, con):
        import duckdb

        from post_ocr_corrector_ray.pipelines.relational import revenue_by_nation

        c = duckdb.connect()
        c.execute("PRAGMA threads=2")
        for t in ("orders", "customer", "nation", "region"):
            c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                      f"read_parquet('{SF}/{t}.parquet')")
        got = revenue_by_nation(SF).to_pandas()
        want = c.execute("""
            SELECT r_name AS region_name, n_name AS nation_name,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) / 100.0 AS revenue
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r_name, n_name""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestCohortPercentRank:
    def test_events_cohort_retention(self, con):
        from post_ocr_corrector_ray.pipelines.relational import (
            events_cohort_retention,
        )

        got = events_cohort_retention(SF).to_pandas()
        want = con.execute("""
            WITH uw AS (SELECT DISTINCT user_id,
                               CAST(date_trunc('week', ts) AS TIMESTAMP) AS week
                        FROM events),
            c AS (SELECT user_id, min(week) AS cohort_week
                  FROM uw GROUP BY user_id)
            SELECT c.cohort_week,
                   CAST(date_diff('week', c.cohort_week, uw.week)
                        AS BIGINT) AS week_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM uw JOIN c USING (user_id) GROUP BY 1, 2""").fetchdf()
        got["cohort_week"] = got["cohort_week"].astype("datetime64[us]")
        want["cohort_week"] = want["cohort_week"].astype("datetime64[us]")
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        # offset-0 count per cohort equals the cohort size (everyone is
        # active in their own first week)
        z = got[got.week_offset == 0]
        assert (z.groupby("cohort_week")["n_users"].sum()
                == got.groupby("cohort_week")["n_users"].max()).all()

    def test_doc_length_percent_rank(self):
        import duckdb

        from post_ocr_corrector_ray.pipelines.documents import (
            doc_length_percent_rank,
        )

        got = doc_length_percent_rank(SF).to_pandas()
        c = duckdb.connect()
        c.execute("PRAGMA threads=2")
        c.execute(f"CREATE VIEW documents AS SELECT * FROM "
                  f"read_parquet('{SF}/documents.parquet')")
        want = c.execute("""
            SELECT doc_id, n_chars,
                   percent_rank() OVER (ORDER BY n_chars, doc_id) AS pr
            FROM documents""").fetchdf()
        g, w = _canon(got), _canon(want)
        assert (g["pr"].to_numpy().tobytes() == w["pr"].to_numpy().tobytes())
        assert g["pr"].min() == 0.0 and g["pr"].max() == 1.0


@pytest.mark.usefixtures("ray_session")
class TestHotKeyTopK:
    def test_events_topk_per_type(self, con):
        from post_ocr_corrector_ray.pipelines.relational import events_topk_per_type

        got = events_topk_per_type(SF).to_pandas()
        want = con.execute("""
            SELECT event_id, event_type, ts, value, rk
            FROM (SELECT e.*, row_number() OVER (
                      PARTITION BY event_type
                      ORDER BY value DESC, event_id DESC) AS rk
                  FROM events e)
            WHERE rk <= 3""").fetchdf()
        got["ts"] = got["ts"].astype("datetime64[us]")
        want["ts"] = want["ts"].astype("datetime64[us]")
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        assert got["ts"].dtype == "datetime64[us]"


@pytest.mark.usefixtures("ray_session")
class TestForecastRevenue:
    def test_forecast_revenue(self):
        import duckdb

        from post_ocr_corrector_ray.pipelines.relational import forecast_revenue

        got = forecast_revenue(SF).to_pandas()
        c = duckdb.connect()
        c.execute("PRAGMA threads=2")
        c.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                  f"read_parquet('{SF}/lineitem.parquet')")
        want = c.execute("""
            SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * CAST(round(l_discount * 100) AS BIGINT))
                        AS BIGINT) / 10000.0 AS revenue
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1997-01-01'
              AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
              AND CAST(l_quantity AS BIGINT) < 24""").fetchdf()
        assert got["revenue"].iloc[0] == want["revenue"].iloc[0]
        assert got["revenue"].iloc[0] > 0


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

    def test_customer_order_stats(self, con):
        from post_ocr_corrector_ray.pipelines.relational import (
            customer_order_stats,
        )

        got = customer_order_stats(SF).to_pandas()
        want = con.execute("""
            SELECT c.c_custkey, c.c_name,
                   CAST(COALESCE(o.cnt, 0) AS BIGINT) AS n_orders,
                   CAST(COALESCE(o.cents, 0) AS BIGINT) / 100.0 AS total_spend
            FROM customer c LEFT JOIN (
              SELECT o_custkey, CAST(count(*) AS BIGINT) AS cnt,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                          AS BIGINT) AS cents
              FROM orders GROUP BY o_custkey) o
              ON c.c_custkey = o.o_custkey""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        # every customer appears exactly once (outer semantics), even though
        # at sf0.001 all of them happen to have orders
        n_cust = con.execute("SELECT count(*) FROM customer").fetchone()[0]
        assert len(got) == n_cust and got["c_custkey"].is_unique


@pytest.mark.usefixtures("ray_session")
class TestMadRollingDau:
    def test_events_value_mad(self, con):
        from post_ocr_corrector_ray.pipelines.relational import events_value_mad

        got = events_value_mad(SF).to_pandas()
        want = con.execute("""
            WITH x AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS v
                       FROM events),
            m AS (SELECT event_type, quantile_disc(v, 0.5) AS med
                  FROM x GROUP BY event_type)
            SELECT x.event_type,
                   CAST(m.med AS BIGINT) / 100.0 AS median_value,
                   CAST(quantile_disc(abs(x.v - m.med), 0.5) AS BIGINT)
                   / 100.0 AS mad_value
            FROM x JOIN m USING (event_type)
            GROUP BY x.event_type, m.med""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        assert (got["mad_value"] >= 0).all()

    def test_events_rolling_active_users(self, con):
        from post_ocr_corrector_ray.pipelines.relational import (
            events_rolling_active_users,
        )

        got = events_rolling_active_users(SF).to_pandas()
        want = con.execute("""
            WITH uh AS (SELECT DISTINCT user_id,
                               date_trunc('hour', ts) AS h FROM events),
            hours AS (SELECT DISTINCT h FROM uh)
            SELECT hours.h AS hour,
                   CAST(count(DISTINCT uh.user_id) AS BIGINT) AS active_users
            FROM hours JOIN uh
              ON uh.h <= hours.h AND uh.h > hours.h - INTERVAL 24 HOURS
            GROUP BY hours.h""").fetchdf()
        got["hour"] = got["hour"].astype("datetime64[us]")
        want["hour"] = want["hour"].astype("datetime64[us]")
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        # trailing window is a superset of the single hour's users
        single = con.execute("""
            SELECT date_trunc('hour', ts) AS hour,
                   count(DISTINCT user_id) AS n FROM events GROUP BY 1""").fetchdf()
        single["hour"] = single["hour"].astype("datetime64[us]")
        j = got.merge(single, on="hour")
        assert (j["active_users"] >= j["n"]).all()


@pytest.mark.usefixtures("ray_session")
class TestSaltedDistinctAndMG:
    def test_events_distinct_users_per_type(self, con):
        from post_ocr_corrector_ray.pipelines.relational import (
            events_distinct_users_per_type,
        )

        got = events_distinct_users_per_type(SF).to_pandas()
        want = con.execute("""
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)

    def test_mg_guarantee_vs_exact(self):
        import pyarrow.parquet as pq

        from post_ocr_corrector_ray.pipelines.documents import doc_heavy_hitters

        k = 64
        got = doc_heavy_hitters(SF, k=k).to_pandas().set_index("token")["est"]
        texts = pq.read_table(f"{SF}/documents.parquet",
                              columns=["text"])["text"].to_pylist()
        exact = pd.Series(" ".join(t for t in texts if t).split()).value_counts()
        n = int(exact.sum())
        bound = n / k
        # every true heavy hitter survives, with estimate within N/k
        heavy = exact[exact > bound]
        assert set(heavy.index) <= set(got.index)
        for t, true_c in heavy.items():
            assert true_c - bound <= got[t] <= true_c
        # no estimate exceeds its true count
        assert all(got[t] <= exact.get(t, 0) for t in got.index)


@pytest.mark.usefixtures("ray_session")
class TestTokenEntropy:
    def test_doc_token_entropy(self):
        import duckdb

        from post_ocr_corrector_ray.pipelines.documents import doc_token_entropy

        got = doc_token_entropy(SF).to_pandas()
        c = duckdb.connect()
        c.execute("PRAGMA threads=2")
        c.execute(f"CREATE VIEW documents AS SELECT * FROM "
                  f"read_parquet('{SF}/documents.parquet')")
        want = c.execute(r"""
            WITH t AS (SELECT doc_id,
                              unnest(list_filter(
                                regexp_split_to_array(text, '\s+'),
                                x -> x <> '')) AS w FROM documents),
            c AS (SELECT doc_id, w, CAST(count(*) AS BIGINT) AS c
                  FROM t GROUP BY doc_id, w),
            n AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n
                  FROM c GROUP BY doc_id)
            SELECT c.doc_id,
                   round(-sum((CAST(c.c AS DOUBLE) / n.n)
                              * ln(CAST(c.c AS DOUBLE) / n.n)), 6) AS entropy
            FROM c JOIN n USING (doc_id) GROUP BY c.doc_id""").fetchdf()
        pd.testing.assert_frame_equal(_canon(got), _canon(want), check_dtype=False)
        assert (got["entropy"] >= 0).all()
