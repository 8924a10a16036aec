"""Driver-contract emulator: runs every queries() entry vs its DuckDB oracle.

Usage: python tools_check_contract.py [sf_dir] [entry,entry,...]
       (default sf_dir /root/testdata/sf0.01; default: every entry)

Each line ends with the md5 of the entry's canonical frame, so two runs
(e.g. two commits) can be compared on rows-only entries too. Exits 1 when
any entry fails or errors.
"""
import hashlib, os, sys, time
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import numpy as np, pandas as pd, duckdb, ray

sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
only = set(sys.argv[2].split(",")) if len(sys.argv) > 2 else None
t_start = time.perf_counter()
ray.init(address="local", num_cpus=8, include_dashboard=False)

import __ray_entry__ as E
qs, sqls = E.queries(), E.oracle_sql()
if only is not None:
    unknown = only - set(qs)
    if unknown:
        sys.exit(f"unknown entries: {sorted(unknown)}")
    qs = {n: f for n, f in qs.items() if n in only}

con = duckdb.connect()
for t in ["region","nation","customer","supplier","part","orders","lineitem","events","documents","embeddings"]:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

def to_df(res):
    if isinstance(res, pd.DataFrame): return res
    try:
        import ray.data
        if isinstance(res, ray.data.Dataset): return res.to_pandas()
    except Exception: pass
    import pyarrow as pa
    if isinstance(res, pa.Table): return res.to_pandas()
    raise TypeError(type(res))

def canon(df):
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)

def frame_md5(df):
    return hashlib.md5(df.to_csv(index=False).encode()).hexdigest()[:12]

fails = []
for name, fn in qs.items():
    t0 = time.perf_counter()
    try:
        mine = canon(to_df(fn(sf_dir)))
    except Exception as e:
        fails.append((name, f"ENGINE ERROR {type(e).__name__}: {e}"))
        print(f"{name}: ENGINE ERROR {e}")
        continue
    dt = time.perf_counter() - t0
    if name not in sqls:
        print(f"{name}: rows={len(mine)} (rows-only, {dt:.1f}s) md5={frame_md5(mine)}")
        if len(mine) == 0 and name not in ("minhash_pairs",):
            fails.append((name, "0 rows (rows-only check weak)"))
        continue
    try:
        oracle = canon(con.execute(sqls[name]).fetchdf())
    except Exception as e:
        fails.append((name, f"SQL ERROR: {e}"))
        print(f"{name}: SQL ERROR {e}")
        continue
    ok_rows = len(mine) == len(oracle)
    ok_cols = list(mine.columns) == list(oracle.columns)
    ok_vals = ok_rows and ok_cols and mine.equals(oracle)
    status = "OK" if ok_vals else "MISMATCH"
    print(f"{name}: {status} rows={len(mine)}/{len(oracle)} cols={list(mine.columns)} ({dt:.1f}s) md5={frame_md5(mine)}")
    if not ok_vals:
        fails.append((name, "mismatch"))
        if ok_rows and ok_cols:
            neq = (mine != oracle).any(axis=1)
            print("  first diffs:\n", mine[neq].head(3), "\n  vs\n", oracle[neq].head(3))
        else:
            print("  mine cols", list(mine.columns), "oracle cols", list(oracle.columns))
            print("  mine head\n", mine.head(3), "\n  oracle head\n", oracle.head(3))
ray.shutdown()
print("FAILS:", fails if fails else "none")
print(f"TOTAL: {len(qs)} entries in {time.perf_counter() - t_start:.1f}s")
sys.exit(1 if fails else 0)
