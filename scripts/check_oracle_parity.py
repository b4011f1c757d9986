"""Mimics the driver's correctness gate: every __ray_entry__ query runs on Ray
and is compared (row count + column names + exact values) against its DuckDB
oracle at the given scale factor.

Usage: python scripts/check_oracle_parity.py [sf_dir] [only,names]
Run from the repo root (Ray workers import the package from cwd).
"""
import os, sys, time
for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(v, "1")
import numpy as np
import pandas as pd
import duckdb
import ray

sys.path.insert(0, os.getcwd())  # repo root: __ray_entry__ + package

SF = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
ONLY = sys.argv[2].split(",") if len(sys.argv) > 2 else None

ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as entrymod

con = duckdb.connect()
con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")

def to_pandas(res):
    import pyarrow as pa
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset

def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)

qs = entrymod.queries()
oracles = entrymod.oracle_sql()
fails = []
for name, fn in qs.items():
    if ONLY and name not in ONLY:
        continue
    t0 = time.time()
    try:
        got = canon(to_pandas(fn(SF)))
    except Exception as e:
        print(f"{name}: RAY ERROR {type(e).__name__}: {e}")
        fails.append(name)
        continue
    dt = time.time() - t0
    if name not in oracles:
        print(f"{name}: rows-only ({len(got)} rows, {dt:.1f}s) cols={list(got.columns)}")
        continue
    try:
        want = canon(con.execute(oracles[name]).fetchdf())
    except Exception as e:
        print(f"{name}: SQL ERROR {e}")
        fails.append(name)
        continue
    ok_rows = len(got) == len(want)
    ok_cols = list(got.columns) == list(want.columns)
    ok_vals = False
    if ok_rows and ok_cols:
        try:
            pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
            ok_vals = True
        except AssertionError as e:
            msg = str(e).split("\n")[0:6]
    status = "OK" if (ok_rows and ok_cols and ok_vals) else "MISMATCH"
    print(f"{name}: {status} ({len(got)} vs {len(want)} rows, {dt:.1f}s)")
    if status != "OK":
        fails.append(name)
        if not ok_cols:
            print("  cols:", list(got.columns), "vs", list(want.columns))
        elif not ok_rows:
            print("  rowcount mismatch")
        else:
            print("  " + "\n  ".join(msg))
            merged = got.compare(want) if got.shape == want.shape else None
            if merged is not None and len(merged):
                print(merged.head(5))
print("FAILS:", fails if fails else "none")
ray.shutdown()
