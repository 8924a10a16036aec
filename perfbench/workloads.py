"""The benchmark workloads: index, serve_point, serve_bulk.

Each workload drives the engine only through its public functions:
``build_index``, ``merge_index``, ``Searcher.search``,
``evaluate_query_dataset`` and ``MergedSearcher.search`` (the last in the
output checks). A run has three phases: set-up (timed, repeated
``SETUP_REPS`` times, ``INDEX_SETUP_REPS`` on ``index``, median reported),
the measured phase and the output checks (untimed).

Every workload builds the segmented index and merges it: ``index`` to time
the write path, the serve workloads to check their answers against the
merged layout. The traced variant of each workload runs the same public
calls with spans around the engine's own layer functions (patched in for the
traced phase only, ``Tracer.wrap``), or around public layer calls made from
here.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import statistics
import time

import numpy as np

import gen
import harness
from spans import Tracer

K = 10
NUM_GROUPS = 2
BULK_BATCH = 32
BULK_NOMINAL_QPS = 400
ROWS_PER_SEGMENT = 6_000
BUCKET_SIZE = 8
SETUP_REPS = 3
# the index warm-up build takes about 0.2 s: more repetitions steady its median
INDEX_SETUP_REPS = 9
CHECK_SAMPLE = 40
WARMUP_S = 2.0
TRACE_QUERIES = 400
CORPUS = gen.Params(docs=12_000, rows_per_group=1_500)
WARM_CORPUS = gen.Params(docs=3_000, vocab=3_000, rows_per_group=500)
WARM_ROWS_PER_SEGMENT = 1_500
WARM_SEED_OFFSET = 7_919
INDEX_PASSES = 4
PASS_SEED_OFFSET = 104_729

END_TO_END = {
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "index_bytes_ratio": "ratio",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
}

PER_LAYER = {
    "ray.boot_s": "s",
    "trace.overhead_ms": "ms",
    # index
    "sources.plan_s": "s",
    "sources.read_s": "s",
    "sources.read_mb": "MB",
    "analysis.busy_s": "s",
    "analysis.unique_tokens": "count",
    "analysis.terms_out": "count",
    "segment.busy_s": "s",
    "segment.terms": "count",
    "segment.postings_bytes": "bytes",
    "segment.bytes": "bytes",
    "build.overhead_s": "s",
    "merge.busy_s": "s",
    "merge.term_rows_in": "count",
    "merge.bytes_out": "bytes",
    "merge.rewrite_ratio": "ratio",
    "merge.part_skew": "ratio",
    # serve_point
    "query.parse_s": "s",
    "search.df_gather_s": "s",
    "search.df_cold_share": "ratio",
    "bloom.skip_ratio": "ratio",
    "search.topk_rpc_s": "s",
    "search.rpc_overhead_s": "s",
    "search.merge_s": "s",
    # serve_bulk
    "bulk.stage_s": "s",
    "bulk.batches": "count",
    "bulk.rows_out": "count",
    "codec.decode_s": "s",
    "codec.bytes_decoded": "bytes",
    # serve_point's queries through MergedSearcher on the merged layout
    "merged.lookup_s": "s",
    "merged.postings_s": "s",
    "merged.bytes_read": "bytes",
    "merged.score_s": "s",
    # shared by the serve workloads
    "scorer.busy_s": "s",
}


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(np.ceil(q * len(s))) - 1))]


class CheckFailed(AssertionError):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Workload:
    """Shared state and helpers; subclasses implement the three phases."""

    name = ""

    def __init__(self, root: str, work: str, seed: int, seconds: float):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.corpus, self.corpus_dir = gen.cached_corpus(os.path.join(root, ".pbcache"), CORPUS, seed)
        self.pools = gen.term_pools(self.corpus)
        self.df_of = gen.df_lookup(self.corpus)
        self.metrics: dict[str, float] = {}
        self.inputs: dict[str, float] = {
            "docs": self.corpus.max_doc,
            "distinct_terms": self.corpus.distinct_terms,
            "tokens": self.corpus.sum_ttf,
        }
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_times: list[float] = []
        self.build_rates: list[float] = []
        self.merge_times: list[float] = []
        self._seq = 0

    # -- engine calls -----------------------------------------------------
    def fresh_dir(self, tag: str) -> str:
        self._seq += 1
        return os.path.join(self.work, f"{tag}{self._seq}")

    def build(self, corpus_dir: str | None = None, rows: int = ROWS_PER_SEGMENT, measured: bool = True):
        from lucene_net_ray.pipelines.build import build_index

        out = self.fresh_dir("idx")
        t0 = time.perf_counter()
        meta = build_index(corpus_dir or self.corpus_dir, out, target_rows_per_segment=rows)
        wall = time.perf_counter() - t0
        if measured:
            self.build_rates.append(meta.max_doc / wall)
        return meta, wall

    def merge(self, meta) -> tuple[str, float]:
        from lucene_net_ray.pipelines.merge import merge_index

        out = self.fresh_dir("merged")
        t0 = time.perf_counter()
        merge_index(meta, out, bucket_size=BUCKET_SIZE)
        wall = time.perf_counter() - t0
        self.merge_times.append(wall)
        return out, wall

    def drop(self, *paths: str) -> None:
        for p in paths:
            shutil.rmtree(p, ignore_errors=True)

    # -- checks -----------------------------------------------------------
    def run_check(self, what: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except Exception as e:  # a failed check is a failed operation
            self.failed += 1
            self.errors.append(f"{what}: {type(e).__name__}: {e}")

    def check_built(self, meta, merged_dir: str) -> None:
        """The full-size index against what the generator knows."""
        from lucene_net_ray.pipelines.merge import MergedIndexReader

        c = self.corpus

        def counts():
            check(meta.max_doc == c.max_doc, f"max_doc {meta.max_doc} != {c.max_doc}")
            check(meta.sum_ttf == c.sum_ttf, f"sum_ttf {meta.sum_ttf} != {c.sum_ttf}")

        def merged_terms():
            r = MergedIndexReader(merged_dir)
            check(r.doc_count == c.max_doc, "merged max_doc")
            check(r.sum_ttf == c.sum_ttf, "merged sum_ttf")
            check(len(r.terms) == c.distinct_terms, f"merged terms {len(r.terms)} != {c.distinct_terms}")
            rng = np.random.default_rng([self.seed, 9])
            sample = [self.pools.rare[i] for i in rng.choice(len(self.pools.rare), 20, replace=False)]
            sample += [self.pools.mid[i] for i in rng.choice(len(self.pools.mid), 10, replace=False)]
            sample += self.pools.head
            for t in sample:
                got = r.term_stats(t)[0]
                check(got == self.df_of[t], f"merged df({t}) {got} != {self.df_of[t]}")

        self.run_check("index counts", counts)
        self.run_check("merged terms and df", merged_terms)

    def compare_layouts(self, pairs: list[tuple[str, list, list]]) -> None:
        """Rank-identical doc ids and float32-identical scores per query."""
        for q, a, b in pairs:
            def one(q=q, a=a, b=b):
                check(len(a) == len(b), f"{q!r}: {len(a)} hits vs {len(b)}")
                for (da, sa), (db, sb) in zip(a, b):
                    check(da == db, f"{q!r}: doc {da} vs {db}")
                    check(np.float32(sa) == np.float32(sb), f"{q!r}: score {sa} vs {sb}")

            self.run_check("layouts agree", one)

    def sample_indices(self, n: int) -> list[int]:
        rng = np.random.default_rng([self.seed, 5])
        return sorted(rng.choice(n, size=min(CHECK_SAMPLE, n), replace=False).tolist())

    # -- result -----------------------------------------------------------
    def finish_write_metrics(self, meta) -> None:
        self.inputs["setup_reps_s"] = [round(t, 3) for t in self.setup_times]
        self.inputs["build_docs_per_s"] = [round(r) for r in self.build_rates]
        self.inputs["merge_reps_s"] = [round(t, 3) for t in self.merge_times]
        self.metrics["setup_s"] = statistics.median(self.setup_times)
        self.inputs["docs_per_s"] = round(statistics.median(self.build_rates))
        self.inputs["merge_s"] = round(statistics.median(self.merge_times), 3)
        self.metrics["index_bytes_ratio"] = harness.dir_bytes(meta.index_dir) / self.corpus.content_bytes

    def latency_metrics(self, ops: int, wall: float, lat_s: list[float]) -> None:
        self.metrics["ops_per_s"] = ops / wall
        self.metrics["p50_ms"] = statistics.median(lat_s) * 1e3
        self.inputs["p99_ms"] = round(pct(lat_s, 0.99) * 1e3, 3)
        self.inputs["latency_samples"] = len(lat_s)

    def quiet(self) -> None:
        """Let the cluster go idle before a timed section, and move what the
        benchmark process holds so far (the generated corpus among it) out of the
        garbage collector's way, so its collections do not land in timings."""
        self.rr.settle()
        gc.freeze()

    def run(self, rr: harness.RayRun, traced: bool, log) -> None:
        self.rr = rr
        t0 = time.perf_counter()
        self.setup()
        t1 = time.perf_counter()
        if traced:
            self.traced()
        else:
            self.measure()
        t2 = time.perf_counter()
        self.checks()
        log(f"set-up {t1 - t0:.1f} s, measured phase {t2 - t1:.1f} s, checks {time.perf_counter() - t2:.1f} s, "
            f"of which waiting for quiet {rr.settle_total:.1f} s")


def _kill(actors) -> None:
    import ray

    for a in actors:
        ray.kill(a)


# ---------------------------------------------------------------------------
class IndexWorkload(Workload):
    """Write path: untimed-cache warm-up builds, then timed build + merge."""

    name = "index"

    def setup(self) -> None:
        warm_seed = self.seed + WARM_SEED_OFFSET
        self.warm_corpus, self.warm_dir = gen.cached_corpus(
            os.path.join(self.root, ".pbcache"), WARM_CORPUS, warm_seed
        )
        self.warm_meta = None
        for _ in range(INDEX_SETUP_REPS):
            if self.warm_meta is not None:
                self.drop(self.warm_meta.index_dir)
            self.quiet()
            self.warm_meta, wall = self.build(self.warm_dir, rows=WARM_ROWS_PER_SEGMENT, measured=False)
            self.setup_times.append(wall)

    def measure(self) -> None:
        """INDEX_PASSES write passes, each over a corpus whose tail is new to
        the analyzer cache: corpora of other seeds first, the main one last
        (it is the one the checks know)."""
        cache = os.path.join(self.root, ".pbcache")
        walls = []
        for p in range(INDEX_PASSES - 1, -1, -1):
            corpus_dir = self.corpus_dir
            if p:
                _c, corpus_dir = gen.cached_corpus(cache, CORPUS, self.seed + p * PASS_SEED_OFFSET)
            self.attempted += 2
            self.quiet()
            meta, build_s = self.build(corpus_dir)
            self.quiet()
            merged_dir, merge_s = self.merge(meta)
            walls.append(build_s + merge_s)
            if p:
                self.drop(meta.index_dir, merged_dir)
        self.meta, self.merged_dir = meta, merged_dir
        self.metrics["rss_peak_mb"] = self.rr.rss_peak_mb()
        self.finish_write_metrics(self.meta)
        self.latency_metrics(self.corpus.max_doc * len(walls), sum(walls), walls)

    def checks(self) -> None:
        from lucene_net_ray.state.checkindex import check_index, check_merged_index

        self.check_built(self.meta, self.merged_dir)
        warm_merged, _ = self.merge(self.warm_meta)
        self.merge_times.pop()  # the check index's merge is not a measured merge
        w = self.warm_corpus

        def checkindex():
            totals = check_index(self.warm_meta)
            check(totals["docs"] == w.max_doc, "check_index docs")
            check(self.warm_meta.sum_ttf == w.sum_ttf, "warm sum_ttf")

        def checkmerged():
            totals = check_merged_index(warm_merged)
            check(totals["terms"] == w.distinct_terms, "check_merged_index terms")
            check(totals["sum_ttf"] == w.sum_ttf, "check_merged_index sum_ttf")

        self.run_check("check_index", checkindex)
        self.run_check("check_merged_index", checkmerged)

    def traced(self) -> None:
        import pyarrow.compute as pc

        from lucene_net_ray.functions.analysis import Analyzer
        from lucene_net_ray.sources.sharding import plan_shards, read_shard

        # One traced pass. An untraced second pass of the same corpus would
        # find the worker's analyzer cache warm, so the overhead reported is
        # the measured cost of the pass's spans themselves.
        self.attempted += 2
        tr = Tracer()
        tr.new_request()
        self.quiet()
        with tr.span("write"):
            with tr.span("build_index"):
                self.meta, build_s = self.build()
            with tr.span("merge_index"):
                self.merged_dir, merge_s = self.merge(self.meta)
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(1000):
            with probe.span("x"):
                pass
        self.metrics["trace.overhead_ms"] = (time.perf_counter() - t0) / 1000 * len(tr.spans) * 1e3

        tr.new_request()
        with tr.span("sources.plan"):
            shards = plan_shards(self.corpus_dir, target_rows=ROWS_PER_SEGMENT)
        unique_tokens = terms_out = 0
        analyzer = Analyzer()
        read_bytes = 0
        for s in shards:
            r0 = harness.read_bytes()
            with tr.span("sources.read"):
                tbl = read_shard(s.to_row(), columns=["content"])
            read_bytes += harness.read_bytes() - r0
            uniq = pc.unique(pc.list_flatten(pc.utf8_split_whitespace(tbl.column("content")))).to_pylist()
            unique_tokens += len(uniq)
            terms = set()
            with tr.span("analysis"):
                for tok in uniq:
                    terms.update(analyzer(tok))
            terms_out += len(terms)
        segs = self.meta.manifest["segments"]
        seg_busy = sum(r["build_sec"] for r in segs)
        seg_bytes = harness.dir_bytes(os.path.join(self.meta.index_dir, "segments"))
        parts_dir = os.path.join(self.merged_dir, "parts")
        part_sizes = [os.path.getsize(os.path.join(parts_dir, f)) for f in os.listdir(parts_dir)]
        merged_bytes = harness.dir_bytes(self.merged_dir)
        st = tr.self_times()
        self.metrics.update(
            {
                "sources.plan_s": st["sources.plan"],
                "sources.read_s": st["sources.read"],
                "sources.read_mb": read_bytes / 1e6,
                "analysis.busy_s": st["analysis"],
                "analysis.unique_tokens": unique_tokens,
                "analysis.terms_out": terms_out,
                "segment.busy_s": seg_busy,
                "segment.terms": sum(r["term_count"] for r in segs),
                "segment.postings_bytes": sum(r["postings_bytes"] for r in segs),
                "segment.bytes": seg_bytes,
                "build.overhead_s": build_s - seg_busy,
                "merge.busy_s": st["merge_index"],
                "merge.term_rows_in": sum(r["term_count"] for r in segs),
                "merge.bytes_out": merged_bytes,
                "merge.rewrite_ratio": merged_bytes / max(1, seg_bytes),
                "merge.part_skew": max(part_sizes) / statistics.median(part_sizes),
            }
        )
        self.inputs["segment_term_rows"] = sum(r["term_count"] for r in segs)
        self.tracer = tr


# ---------------------------------------------------------------------------
class ServePointWorkload(Workload):
    """Closed loop of Searcher.search over the segmented index (actors)."""

    name = "serve_point"

    def setup(self) -> None:
        from lucene_net_ray.pipelines.search import Searcher
        from lucene_net_ray.query import parse_query

        self.qs = gen.point_queries(self.pools, 20_000, self.seed)
        self.meta = self.searcher = None
        for _ in range(SETUP_REPS):
            if self.searcher is not None:
                _kill(self.searcher.groups)
                self.drop(self.meta.index_dir)
            self.quiet()
            t0 = time.perf_counter()
            self.meta, _ = self.build()
            self.searcher = Searcher(self.meta, num_actors=NUM_GROUPS)
            self.searcher.search(parse_query(self.qs[0]), k=K)
            self.setup_times.append(time.perf_counter() - t0)
        self.inputs["segment_term_rows"] = sum(r["term_count"] for r in self.meta.manifest["segments"])

    def warm_up(self, search) -> list[str]:
        """Serve WARMUP_S of queries from the back half of the stream, so the
        serving caches of head and mid terms fill before timing (rare terms
        stay cold: each is drawn once). Returns the stream to measure."""
        n = len(self.qs) // 2
        done, _lat, _wall = self.closed_loop(search, self.qs[n:], WARMUP_S)
        self.served_before = [self.qs[0], *self.qs[n : n + len(done)]]
        return self.qs[1:n]

    def closed_loop(self, search, qs: list[str], seconds: float) -> tuple[list, list[float], float]:
        from lucene_net_ray.query import parse_query

        results, lat = [], []
        t_start = time.perf_counter()
        t_end = t_start + seconds
        i = 0
        while True:
            t0 = time.perf_counter()
            if t0 >= t_end or i == len(qs):
                break
            self.attempted += 1
            try:
                hits = search(parse_query(qs[i]), k=K)
            except Exception as e:
                self.failed += 1
                self.errors.append(f"query {qs[i]!r}: {type(e).__name__}: {e}")
                hits = None
            lat.append(time.perf_counter() - t0)
            results.append(hits)
            i += 1
        return results, lat, time.perf_counter() - t_start

    def pin(self) -> None:
        """Serve on one CPU: this process and every Ray process move to the
        idlest CPU. A point query is a chain of round trips between this
        process and the group actors. Spread over several CPUs, each hop is a
        cross-CPU wake-up, whose cost on a shared virtual machine swings by a
        factor of four from minute to minute; on one CPU it is a context
        switch."""
        self.inputs["cpu"] = cpu = harness.idlest_cpu()
        harness.pin_tree(cpu)
        self.quiet()

    def measure(self) -> None:
        self.quiet()
        self.merged_dir, _ = self.merge(self.meta)
        self.pin()
        qs = self.warm_up(self.searcher.search)
        self.results, lat, wall = self.closed_loop(self.searcher.search, qs, self.seconds)
        self.metrics["rss_peak_mb"] = self.rr.rss_peak_mb()
        self.done = qs[: len(self.results)]
        self.latency_metrics(len(lat), wall, lat)
        self.inputs.update(gen.query_properties(self.done, self.df_of, self.served_before))
        self.finish_write_metrics(self.meta)

    def checks(self) -> None:
        from lucene_net_ray.pipelines.merge import MergedSearcher
        from lucene_net_ray.query import parse_query

        self.check_built(self.meta, self.merged_dir)
        ms = MergedSearcher(self.merged_dir)
        pairs = []
        for i in self.sample_indices(len(self.done)):
            if self.results[i] is not None:
                pairs.append((self.done[i], self.results[i], ms.search(parse_query(self.done[i]), k=K)))
        self.compare_layouts(pairs)

    def traced(self) -> None:
        """The measured queries through Searcher.search on a fresh Searcher,
        with spans around the engine's own df gather and merge_top_docs;
        then through Searcher(use_actors=False), for the in-process scorer
        time, and through MergedSearcher on the merged layout."""
        from lucene_net_ray.functions.bloom import FuzzySet
        from lucene_net_ray.pipelines import search as search_mod
        from lucene_net_ray.pipelines.scorer import query_terms
        from lucene_net_ray.pipelines.search import Searcher
        from lucene_net_ray.query import parse_query

        qs = self.qs[1 : 1 + TRACE_QUERIES]
        self.pin()
        t0 = time.perf_counter()
        self.results = [self.searcher.search(parse_query(q), k=K) for q in qs]
        untraced = (time.perf_counter() - t0) / len(qs)
        self.attempted += len(qs)
        self.done = qs

        # new group actors and an empty df cache, brought up by set-up's
        # first query, so the traced pass is as cold as the untraced one was
        _kill(self.searcher.groups)
        self.searcher = searcher = Searcher(self.meta, num_actors=NUM_GROUPS)
        searcher.search(parse_query(self.qs[0]), k=K)
        n = {"terms": 0, "cold": 0, "asked": 0, "skipped": 0}

        def gathered(args, _out, _grew):
            n["cold"] += len(args[0])
            n["asked"] += len(args[0]) * len(searcher.groups)

        def bloomed(_args, out, _grew):
            n["skipped"] += len(out) - int(np.count_nonzero(out))

        tr = Tracer()
        hits = []
        with (
            tr.wrap(searcher, "_gather_df", "search.df_gather", gathered),
            tr.wrap(FuzzySet, "may_contain_many", observe=bloomed),
            tr.wrap(search_mod, "merge_top_docs", "search.merge"),
        ):
            t0 = time.perf_counter()
            for q in qs:
                tr.new_request()
                with tr.span("query"):
                    with tr.span("query.parse"):
                        pq = parse_query(q)
                    # self time: query rewrite plus the top_k fan-out and ray.get
                    with tr.span("search.topk_rpc"):
                        hits.append(searcher.search(pq, k=K))
                n["terms"] += len(query_terms(pq))
            traced = (time.perf_counter() - t0) / len(qs)

        local = Searcher(self.meta, num_actors=NUM_GROUPS, use_actors=False)
        local.search(parse_query(self.qs[0]), k=K)
        local_hits = []
        with (
            tr.wrap(local, "_gather_df", "scorer.df_gather"),
            tr.wrap(search_mod, "merge_top_docs", "scorer.merge"),
        ):
            for q in qs:
                pq = parse_query(q)
                tr.new_request()
                with tr.span("scorer"):
                    local_hits.append(local.search(pq, k=K))
        for q, a, b, c in zip(qs, hits, local_hits, self.results):
            self.attempted += 1
            if not a == b == c:
                self.failed += 1
                self.errors.append(f"{q!r}: traced, in-process and untraced Searcher.search results differ")
        st = tr.self_times()
        self.metrics.update(
            {
                "trace.overhead_ms": (traced - untraced) * 1e3,
                "query.parse_s": st["query.parse"],
                "search.df_gather_s": st["search.df_gather"],
                "search.df_cold_share": n["cold"] / max(1, n["terms"]),
                "bloom.skip_ratio": n["skipped"] / max(1, n["asked"]),
                "search.topk_rpc_s": st["search.topk_rpc"],
                "scorer.busy_s": st["scorer"],
                "search.rpc_overhead_s": st["search.topk_rpc"] - st["scorer"],
                "search.merge_s": st["search.merge"],
            }
        )
        self.inputs.update(gen.query_properties(qs, self.df_of))
        self.merged_dir, _ = self.merge(self.meta)
        self.trace_merged(tr, qs)
        self.tracer = tr

    def trace_merged(self, tr: Tracer, qs: list[str]) -> None:
        """The same queries through MergedSearcher.search, with spans around
        its reader's term-range lookups and postings reads."""
        from lucene_net_ray.pipelines.merge import MergedSearcher
        from lucene_net_ray.query import parse_query

        ms = MergedSearcher(self.merged_dir)
        n = {"bytes": 0}

        def read(_args, _out, grew):
            n["bytes"] += grew

        with (
            tr.wrap(ms.reader, "term_stats", "merged.lookup"),
            tr.wrap(ms.reader, "postings", "merged.postings", read, harness.read_bytes),
        ):
            for j, q in enumerate(qs):
                pq = parse_query(q)
                tr.new_request()
                # self time: rewrite and SegmentScorer.top_k over the merged reader
                with tr.span("merged.search"):
                    hits = ms.search(pq, k=K)
                self.attempted += 1
                if hits != self.results[j]:
                    self.failed += 1
                    self.errors.append(f"{q!r}: MergedSearcher.search differs from Searcher.search")
        st = tr.self_times()
        self.metrics.update(
            {
                "merged.lookup_s": st["merged.lookup"],
                "merged.postings_s": st["merged.postings"],
                "merged.bytes_read": n["bytes"],
                "merged.score_s": st["merged.search"],
            }
        )


# ---------------------------------------------------------------------------
def _stage_stats(stats_text: str, op: str) -> dict[str, float]:
    """Remote wall time (total and mean per task), task count and output rows
    of one Ray Data operator, from the Dataset's stats() text."""
    m = re.search(rf"Operator \d+ [^\n]*{op}[^\n]*: (\d+) tasks executed[^\n]*\n(.*?)(?:\n\n|\Z)", stats_text, re.S)
    t = r"([\d.]+)(us|ms|s)"
    w = m and re.search(rf"Remote wall time: {t} min, {t} max, {t} mean, {t} total", m.group(2))
    r = m and re.search(r"Output num rows per block: .*?, (\d+) total", m.group(2))
    if not (w and r):
        raise RuntimeError(f"no {op} task statistics in the Dataset's stats():\n{stats_text}")
    units = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
    return {
        "batches": float(m.group(1)),
        "task_mean_s": float(w.group(5)) * units[w.group(6)],
        "stage_s": float(w.group(7)) * units[w.group(8)],
        "rows_out": float(r.group(1)),
    }


class ServeBulkWorkload(Workload):
    """Queries as a Dataset through evaluate_query_dataset (2 groups, 1 dispatcher)."""

    name = "serve_bulk"

    def setup(self) -> None:
        self.qs = gen.bulk_queries(self.pools, 12_000, self.seed)
        self.meta = None
        for _ in range(SETUP_REPS):
            if self.meta is not None:
                self.drop(self.meta.index_dir)
            self.quiet()
            t0 = time.perf_counter()
            self.meta, _ = self.build()
            self.evaluate(self.qs[:BULK_BATCH], 0)
            self.setup_times.append(time.perf_counter() - t0)
        self.inputs["segment_term_rows"] = sum(r["term_count"] for r in self.meta.manifest["segments"])

    def dataset(self, qs: list[str], base: int):
        import ray.data

        return ray.data.from_items([{"query_id": base + i, "query": q} for i, q in enumerate(qs)])

    def evaluate(self, qs: list[str], base: int, rss_at: int = 0):
        """Run evaluate_query_dataset over ``qs``; return (hits by query id,
        (arrival time, queries) per output batch, start time, the output
        Dataset). With ``rss_at``, read rss_peak_mb when that many output
        batches have arrived, while the dispatcher and group actors live."""
        from lucene_net_ray.pipelines.search import evaluate_query_dataset

        t_start = time.perf_counter()
        out = evaluate_query_dataset(
            self.meta.index_dir, self.dataset(qs, base), k=K, concurrency=(1, 1),
            batch_size=BULK_BATCH, num_groups=NUM_GROUPS,
        )
        hits: dict[int, list] = {}
        arrivals = []
        for b in out.iter_batches(batch_size=None, batch_format="pyarrow"):
            qids = b.column("query_id").to_pylist()
            arrivals.append((time.perf_counter(), len(set(qids))))
            for qid, doc, score in zip(qids, b.column("doc_id").to_pylist(), b.column("score").to_pylist()):
                hits.setdefault(qid, []).append((doc, score))
            if len(arrivals) == rss_at:
                self.metrics["rss_peak_mb"] = self.rr.rss_peak_mb()
        return hits, arrivals, t_start, out

    def answered(self, hits: dict, qs: list[str]) -> None:
        """Every query of ``qs`` (ids from BULK_BATCH on) is one operation.
        Each holds a head term, so each must come back with exactly K hits:
        a query the stage drops or cuts short is a failed one."""
        self.hits = hits
        self.done = list(range(BULK_BATCH, BULK_BATCH + len(qs)))
        self.attempted += len(qs)
        short = [qid for qid in self.done if len(hits.get(qid, ())) != K]
        if short:
            self.failed += len(short)
            self.errors.append(f"{len(short)} of {len(qs)} bulk queries without {K} hits, first: "
                               + ", ".join(f"{self.qs[q]!r} ({len(hits.get(q, ()))})" for q in short[:5]))

    def measure(self) -> None:
        self.quiet()
        self.merged_dir, _ = self.merge(self.meta)
        self.quiet()
        # a fixed amount of work sized to last about --seconds at the
        # nominal rate (stopping the Dataset early leaves its threads
        # running into ray.shutdown)
        n = BULK_BATCH * (1 + max(4, round(self.seconds * BULK_NOMINAL_QPS / BULK_BATCH)))
        qs = self.qs[BULK_BATCH : BULK_BATCH + n]
        hits, arrivals, t_start, out = self.evaluate(qs, BULK_BATCH, rss_at=n // BULK_BATCH - 1)
        if "rss_peak_mb" not in self.metrics:  # fewer output batches than input batches
            self.metrics["rss_peak_mb"] = self.rr.rss_peak_mb()
        stage = _stage_stats(out.stats(), "QueryEvalStage")
        del out
        self.answered(hits, qs)
        self.inputs["bulk_startup_s"] = arrivals[0][0] - t_start
        self.inputs.update(gen.query_properties(qs, self.df_of))
        # throughput in steady state: queries answered after the first output
        # batch, over the time from that batch to the last
        self.metrics["ops_per_s"] = (len(qs) - arrivals[0][1]) / (arrivals[-1][0] - arrivals[0][0])
        # latency: the stage's own mean wall time per 32-query task, as the
        # Dataset's stats() report it (the Dataset iterator hands batches
        # out on a coarse tick, so gaps between arrivals are not latencies)
        self.metrics["p50_ms"] = stage["task_mean_s"] * 1e3
        self.inputs["latency_samples"] = stage["batches"]
        self.finish_write_metrics(self.meta)

    def checks(self) -> None:
        from lucene_net_ray.pipelines.merge import MergedSearcher
        from lucene_net_ray.query import parse_query

        self.check_built(self.meta, self.merged_dir)
        ms = MergedSearcher(self.merged_dir)
        pairs = []
        for i in self.sample_indices(len(self.done)):
            qid = self.done[i]
            q = self.qs[qid]
            pairs.append((q, self.hits[qid], ms.search(parse_query(q), k=K)))
        self.compare_layouts(pairs)

    def traced(self) -> None:
        """The bulk job twice, untraced and traced, with the stage's own
        statistics; then the in-process scorer on the same batches, and the
        engine's postings decode on every query term through SegmentReader."""
        from lucene_net_ray.functions import codec
        from lucene_net_ray.pipelines.search import Searcher
        from lucene_net_ray.query import parse_query
        from lucene_net_ray.state.segment import SegmentReader

        n = TRACE_QUERIES * 2
        qs = self.qs[BULK_BATCH : BULK_BATCH + n]
        t0 = time.perf_counter()
        self.evaluate(qs, BULK_BATCH)
        untraced = (time.perf_counter() - t0) / n
        tr = Tracer()
        tr.new_request()
        t0 = time.perf_counter()
        with tr.span("bulk"):
            hits, _arrivals, _t, out = self.evaluate(qs, BULK_BATCH)
        traced = (time.perf_counter() - t0) / n
        stage = _stage_stats(out.stats(), "QueryEvalStage")
        del out
        self.answered(hits, qs)

        local = Searcher(self.meta, num_actors=NUM_GROUPS, use_actors=False)
        parsed = [(str(i), parse_query(q)) for i, q in enumerate(qs)]
        for lo in range(0, n, BULK_BATCH):
            tr.new_request()
            with tr.span("scorer"):
                local.batch_search(parsed[lo : lo + BULK_BATCH], k=K)

        terms = sorted({t for q in qs for t in gen.query_terms(q)})
        decoded = {"bytes": 0}

        def count(args, _out, _grew):
            decoded["bytes"] += len(args[0]) + len(args[1])

        with tr.wrap(codec, "decode_postings", "codec.decode", count):
            for d in self.meta.segment_dirs:
                r = SegmentReader(d)  # its postings cache is empty: every term decodes
                for t in terms:
                    tr.new_request()
                    r.postings(t)
        st = tr.self_times()
        self.metrics.update(
            {
                "trace.overhead_ms": (traced - untraced) * 1e3,
                "bulk.stage_s": stage["stage_s"],
                "bulk.batches": stage["batches"],
                "bulk.rows_out": stage["rows_out"],
                "scorer.busy_s": st["scorer"],
                "codec.decode_s": st["codec.decode"],
                "codec.bytes_decoded": decoded["bytes"],
            }
        )
        self.inputs.update(gen.query_properties(qs, self.df_of))
        self.merged_dir, _ = self.merge(self.meta)
        self.tracer = tr

WORKLOADS = {w.name: w for w in (IndexWorkload, ServePointWorkload, ServeBulkWorkload)}
