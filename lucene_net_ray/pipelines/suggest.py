"""Suggesters beyond the term-dict prefix/spell utilities in collectors.py.

  AnalyzingSuggester analog  reference Suggest/Suggest/Analyzing/
      AnalyzingSuggester.cs:88 — completions are looked up by the ANALYZED
      form of the key but return the ORIGINAL surface form, ranked by weight.
      The FST is replaced by a sorted Arrow table of (analyzed_key, weight,
      surface, payload) built with one Ray aggregation; lookup is a binary-
      search prefix range. Holding the table in RAM matches the reference
      (suggesters are in-memory structures built offline).
  WordBreakSpellChecker analog  reference Suggest/Spell/
      WordBreakSpellChecker.cs — suggestWordBreaks splits an out-of-
      vocabulary term into dictionary words; suggestWordCombinations joins
      adjacent query terms into one dictionary word. Both rank by the
      combined document frequency.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.analysis import Analyzer


_RANGE_HI = "\U0010FFFF"


class _SortedParquetStore:
    """Key-sorted parquet parts + a [min,max] routing manifest — the storage
    seam shared by every suggester (round 4: replaces the driver-resident
    ``take_all`` arrays, which were corpus-vocab-sized at 100 TB). Lookups
    binary-route through the manifest and read ONLY covering parts with a
    parquet range predicate; ``parts_read`` lets tests assert laziness."""

    def __init__(self, store_dir: str, key_column: str):
        import json
        import os

        self.dir = store_dir
        self.key_column = key_column
        self.parts_read = 0
        with open(os.path.join(store_dir, "manifest.json")) as f:
            self.manifest = json.load(f)

    @staticmethod
    def build(ds: ray.data.Dataset, store_dir: str, key_column: str, extra: dict | None = None):
        import json
        import os

        parts_dir = os.path.join(store_dir, "parts")
        os.makedirs(parts_dir, exist_ok=True)
        ds.sort(key_column).write_parquet(parts_dir, row_group_size=512)
        manifest = {"parts": _part_ranges(parts_dir, key_column), **(extra or {})}
        tmp = os.path.join(store_dir, "manifest.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, os.path.join(store_dir, "manifest.json"))

    def read_range(self, lo: str, hi: str) -> pa.Table:
        import os

        import pyarrow.parquet as _pq

        tabs = []
        for p in self.manifest["parts"]:
            if p["max"] < lo or p["min"] > hi:
                continue
            self.parts_read += 1
            tabs.append(
                _pq.read_table(
                    os.path.join(self.dir, "parts", p["file"]),
                    filters=[(self.key_column, ">=", lo), (self.key_column, "<=", hi)],
                )
            )
        if not tabs:
            return None
        return pa.concat_tables(tabs)


class AnalyzingSuggester:
    """AnalyzingSuggester analog: lookup by the ANALYZED form of the key,
    returning the ORIGINAL surface ranked by weight. The FST is replaced by
    a key-sorted parquet store with range-routed lookups (the reference's
    in-RAM FST is suggester-sized; at corpus scale the vocabulary is not,
    so the store lives on disk and the driver holds only the manifest)."""

    def __init__(
        self,
        ds: ray.data.Dataset | None = None,
        *,
        store_dir: str | None = None,
        surface_column: str = "suggestion",
        weight_column: str = "weight",
        analyzer: Analyzer | None = None,
    ):
        import os
        import tempfile

        analyzer = analyzer or Analyzer()
        self._analyzer = analyzer
        store_dir = store_dir or tempfile.mkdtemp(prefix="lnr_suggest_", dir="/tmp")
        if not os.path.exists(os.path.join(store_dir, "manifest.json")):
            if ds is None:
                raise FileNotFoundError(f"no suggester store at {store_dir} and no ds")

            def keyed(batch: pa.Table) -> pa.Table:
                surfaces = batch.column(surface_column).to_pylist()
                weights = batch.column(weight_column).to_pylist()
                keys = [" ".join(analyzer(s)) for s in surfaces]
                return pa.table(
                    {
                        "key": pa.array(keys, type=pa.string()),
                        "surface": pa.array(surfaces, type=pa.string()),
                        "weight": pa.array([int(w) for w in weights], type=pa.int64()),
                    }
                )

            rows = (
                ds.map_batches(keyed, batch_format="pyarrow")
                .groupby(["key", "surface"])
                .max("weight")
                .rename_columns({"max(weight)": "weight"})
            )
            _SortedParquetStore.build(rows, store_dir, "key")
        self._store = _SortedParquetStore(store_dir, "key")

    @property
    def parts_read(self) -> int:
        return self._store.parts_read

    def lookup(self, prefix: str, k: int = 5) -> list[tuple[str, int]]:
        """Top-k (surface, weight) whose ANALYZED key starts with the
        analyzed prefix; ties by surface asc."""
        key = " ".join(self._analyzer(prefix))
        tab = self._store.read_range(key, key + _RANGE_HI)
        if tab is None:
            return []
        cands = [
            (s, int(w))
            for ky, s, w in zip(
                tab.column("key").to_pylist(),
                tab.column("surface").to_pylist(),
                tab.column("weight").to_pylist(),
            )
            if ky.startswith(key)
        ]
        cands.sort(key=lambda x: (-x[1], x[0]))
        return cands[:k]


def _prefix_edit_distance(query: str, cand: str, cap: int) -> int:
    """min edit distance of `query` to any PREFIX of `cand` (banded DP rows
    over cand; suggester keys are short, so plain DP is fine)."""
    prev = list(range(len(query) + 1))
    best = prev[-1]
    for ch in cand:
        cur = [prev[0] + 1]
        for j, qc in enumerate(query, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (qc != ch)))
        prev = cur
        best = min(best, prev[-1])
        if min(prev) > cap:
            break
    return best


class FuzzySuggester(AnalyzingSuggester):
    """FuzzySuggester analog (reference
    Suggest/Suggest/Analyzing/FuzzySuggester.cs:60): AnalyzingSuggester whose
    lookup key may differ from stored keys by up to ``max_edits`` edits. The
    first ``non_fuzzy_prefix`` chars must match exactly and keys shorter
    than ``min_fuzzy_length`` fall back to exact prefix lookup — the
    reference's defaults (1 edit, prefix 1, min length 3)."""

    def __init__(
        self,
        ds: ray.data.Dataset | None = None,
        *,
        max_edits: int = 1,
        non_fuzzy_prefix: int = 1,
        min_fuzzy_length: int = 3,
        **kw,
    ):
        super().__init__(ds, **kw)
        self.max_edits = max_edits
        self.non_fuzzy_prefix = non_fuzzy_prefix
        self.min_fuzzy_length = min_fuzzy_length

    def lookup(self, prefix: str, k: int = 5) -> list[tuple[str, int]]:
        key = " ".join(self._analyzer(prefix))
        if len(key) < self.min_fuzzy_length:
            return super().lookup(prefix, k)
        head = key[: self.non_fuzzy_prefix]
        tab = self._store.read_range(head, head + _RANGE_HI)
        if tab is None:
            return []
        best: dict[str, int] = {}
        for ky, s, w in zip(
            tab.column("key").to_pylist(),
            tab.column("surface").to_pylist(),
            tab.column("weight").to_pylist(),
        ):
            cand = ky[: len(key) + self.max_edits]
            if _prefix_edit_distance(key, cand, self.max_edits) <= self.max_edits:
                if int(w) > best.get(s, -1):
                    best[s] = int(w)
        out = sorted(best.items(), key=lambda x: (-x[1], x[0]))
        return out[:k]


class FreeTextSuggester:
    """FreeTextSuggester analog (reference
    Suggest/Suggest/Analyzing/FreeTextSuggester.cs:120): an n-gram language
    model with "stupid backoff" (the reference's ALPHA = 0.4).

    Build = ONE Ray aggregation: per-batch shingle Counters (the
    combiner-before-shuffle pattern) -> groupby(gram).sum. The finished model
    (gram -> count per order) is suggester-sized and held in RAM, like the
    reference's FST.

    lookup(context): the last (grams-1) analyzed tokens form the context;
    candidates seed from the LONGEST matching context suffix and back off to
    shorter ones weighted ALPHA^steps, each scored count/context_count; a
    trailing partial token (no trailing whitespace) filters candidates by
    prefix — mirroring FreeTextSuggester.DoLookup's backoff walk.
    """

    ALPHA = 0.4

    def __init__(
        self,
        ds: ray.data.Dataset | None = None,
        *,
        store_dir: str | None = None,
        text_column: str = "text",
        grams: int = 3,
        analyzer: Analyzer | None = None,
    ):
        import os
        import tempfile

        analyzer = analyzer or Analyzer(stop_words=None)
        self.grams = grams
        self._analyzer = analyzer
        store_dir = store_dir or tempfile.mkdtemp(prefix="lnr_freetext_", dir="/tmp")
        if not os.path.exists(os.path.join(store_dir, "manifest.json")):
            if ds is None:
                raise FileNotFoundError(f"no suggester store at {store_dir} and no ds")

            def shingle_partials(batch: pa.Table) -> pa.Table:
                from collections import Counter

                agg: Counter = Counter()
                for text in batch.column(text_column).to_pylist():
                    toks = analyzer(text)
                    for n in range(1, grams + 1):
                        for i in range(len(toks) - n + 1):
                            agg[" ".join(toks[i : i + n])] += 1
                return pa.table(
                    {
                        "gram": pa.array(list(agg.keys()), type=pa.string()),
                        "n": pa.array(list(agg.values()), type=pa.int64()),
                    }
                )

            rows = (
                ds.map_batches(shingle_partials, batch_format="pyarrow")
                .groupby("gram")
                .sum("n")
                .rename_columns({"sum(n)": "n"})
                .map_batches(
                    lambda b: b.append_column(
                        "order",
                        pa.array(
                            [g.count(" ") + 1 for g in b.column("gram").to_pylist()],
                            type=pa.int64(),
                        ),
                    ),
                    batch_format="pyarrow",
                )
                .materialize()  # model-sized: reused by the write AND the uni sum
            )
            total_uni = rows.filter(lambda r: r["order"] == 1).sum("n") or 0
            _SortedParquetStore.build(
                rows, store_dir, "gram", extra={"total_uni": max(int(total_uni), 1)}
            )
        self._store = _SortedParquetStore(store_dir, "gram")
        self._total_uni = self._store.manifest["total_uni"]

    @property
    def parts_read(self) -> int:
        return self._store.parts_read

    def _candidates(self, ctx_key: str, prefix: str, order: int) -> dict[str, int]:
        """{gram: count} of length `order` starting with 'ctx_key ' + prefix*
        — one routed range read."""
        head = (ctx_key + " " + prefix) if ctx_key else prefix
        tab = self._store.read_range(head, head + _RANGE_HI)
        if tab is None:
            return {}
        return {
            g: int(n)
            for g, o, n in zip(
                tab.column("gram").to_pylist(),
                tab.column("order").to_pylist(),
                tab.column("n").to_pylist(),
            )
            if o == order and g.startswith(head)
        }

    def count_table(self) -> dict[str, int]:
        """The full gram->count model as a dict — the BROADCAST-model path
        (lm_quality_scores ships it via ray.put for batch inference). The
        model is aggregate-sized by construction; interactive lookups should
        use the routed reads instead."""
        import os

        import pyarrow.parquet as _pq

        out: dict[str, int] = {}
        for p in self._store.manifest["parts"]:
            t = _pq.read_table(
                os.path.join(self._store.dir, "parts", p["file"]), columns=["gram", "n"]
            )
            out.update(
                zip(t.column("gram").to_pylist(), (int(v) for v in t.column("n").to_pylist()))
            )
        return out

    def _count_of(self, key: str) -> int:
        tab = self._store.read_range(key, key)
        if tab is None:
            return 0
        for g, n in zip(tab.column("gram").to_pylist(), tab.column("n").to_pylist()):
            if g == key:
                return int(n)
        return 0

    def lookup(self, context: str, k: int = 5) -> list[tuple[str, float]]:
        """Top-k (next_token, score). Trailing whitespace means the last
        token is complete; otherwise it is a prefix filter."""
        complete = context != context.rstrip()
        toks = self._analyzer(context)
        if complete or not toks:
            prefix, ctx = "", toks
        else:
            prefix, ctx = toks[-1], toks[:-1]
        ctx = ctx[-(self.grams - 1) :] if self.grams > 1 else []
        scored: dict[str, float] = {}
        max_order = len(ctx)
        for order in range(max_order, -1, -1):
            suffix = ctx[len(ctx) - order :]
            key = " ".join(suffix)
            denom = self._count_of(key) if order else self._total_uni
            if denom <= 0:
                continue
            weight = self.ALPHA ** (max_order - order)
            for g, cnt in self._candidates(key, prefix, order + 1).items():
                token = g.rsplit(" ", 1)[-1] if order else g
                if token in scored:
                    continue  # higher-order estimate wins (stupid backoff)
                scored[token] = weight * cnt / denom
        out = sorted(scored.items(), key=lambda x: (-x[1], x[0]))
        return out[:k]


# ---------------------------------------------------------------------------
# infix suggesters: parquet-backed, token-range-routed (never driver-resident)
# ---------------------------------------------------------------------------

class AnalyzingInfixSuggester:
    """AnalyzingInfixSuggester analog (reference
    Suggest/Suggest/Analyzing/AnalyzingInfixSuggester.cs:37): search-as-you-
    type on ANY word of the suggestion, not just its start. The query's
    tokens match exactly except the last, which is a PREFIX of any token
    (unless the key has trailing separators — then it is exact too);
    ``all_terms_required`` maps MUST/SHOULD exactly like Lookup(key, ...,
    allTermsRequired). Results rank by weight desc (ties by id — the
    reference ties on surface bytes, an FST detail; documented divergence),
    with optional <b>..</b> highlighting of matched tokens and the matched
    prefix (AnalyzingInfixSuggester.Highlight / AddPrefixMatch).

    Storage is the scale path the reference's side-Lucene-index plays: the
    suggester lives on disk, not the driver —
      store_dir/tokens/part-*.parquet  (token, pos, sid, weight) globally
          sorted by token; per-part [token_min, token_max] in manifest.json
      store_dir/suggestions/part-*.parquet  (sid, surface, weight[, payload])
          sorted by sid; per-part [sid_min, sid_max] in the manifest
    Lookup routes each query token through the parts manifest (the
    terms_in_range discipline of pipelines/merge.py) and reads ONLY covering
    parts with a parquet predicate — O(query tokens × one part), never
    O(vocabulary); the driver holds the manifest alone. ``parts_read``
    counts part-file reads so tests can assert routing stays lazy.

    The reference's ``textgrams`` EdgeNGram field exists to make short-
    prefix queries cheap in an FST; a sorted-parquet range scan is already
    one bounded read, so no ngram sidecar is needed.
    """

    _HI = "\U0010FFFF"

    def __init__(
        self,
        ds: ray.data.Dataset | None = None,
        *,
        store_dir: str,
        surface_column: str = "suggestion",
        weight_column: str = "weight",
        payload_column: str | None = None,
        id_column: str | None = None,
        contexts_column: str | None = None,
        analyzer: Analyzer | None = None,
    ):
        import json
        import os

        self.analyzer = analyzer or Analyzer()
        self.store_dir = store_dir
        self.parts_read = 0
        man_path = os.path.join(store_dir, "manifest.json")
        if not os.path.exists(man_path):
            if ds is None:
                raise FileNotFoundError(f"no suggester store at {store_dir} and no ds")
            self._build(
                ds, surface_column, weight_column, payload_column, id_column,
                contexts_column,
            )
        with open(man_path) as f:
            self.manifest = json.load(f)

    def _build(
        self, ds, surface_column, weight_column, payload_column, id_column,
        contexts_column=None,
    ):
        import hashlib as _hashlib
        import json
        import os

        analyzer = self.analyzer
        has_payload = payload_column is not None

        def explode(batch: pa.Table) -> pa.Table:
            surfaces = batch.column(surface_column).to_pylist()
            weights = batch.column(weight_column).to_pylist()
            payloads = batch.column(payload_column).to_pylist() if has_payload else None
            if id_column is not None:
                sids = [int(v) for v in batch.column(id_column).to_pylist()]
            else:
                sids = [
                    int.from_bytes(
                        _hashlib.md5(
                            f"{s}\x00{w}\x00{payloads[i] if has_payload else ''}".encode()
                        ).digest()[:8],
                        "big",
                    )
                    >> 1
                    for i, (s, w) in enumerate(zip(surfaces, weights))
                ]
            t_tok, t_pos, t_sid, t_w = [], [], [], []
            for i, s in enumerate(surfaces):
                first: dict[str, int] = {}
                for p, t in enumerate(analyzer(s)):
                    if t not in first:
                        first[t] = p
                for t, p in first.items():
                    t_tok.append(t)
                    t_pos.append(p)
                    t_sid.append(sids[i])
                    t_w.append(int(weights[i]))
            return pa.table(
                {
                    "token": pa.array(t_tok, type=pa.string()),
                    "pos": pa.array(t_pos, type=pa.int64()),
                    "sid": pa.array(t_sid, type=pa.int64()),
                    "weight": pa.array(t_w, type=pa.int64()),
                }
            )

        def suggestion_rows(batch: pa.Table) -> pa.Table:
            surfaces = batch.column(surface_column).to_pylist()
            weights = batch.column(weight_column).to_pylist()
            payloads = batch.column(payload_column).to_pylist() if has_payload else None
            if id_column is not None:
                sids = [int(v) for v in batch.column(id_column).to_pylist()]
            else:
                sids = [
                    int.from_bytes(
                        _hashlib.md5(
                            f"{s}\x00{w}\x00{payloads[i] if has_payload else ''}".encode()
                        ).digest()[:8],
                        "big",
                    )
                    >> 1
                    for i, (s, w) in enumerate(zip(surfaces, weights))
                ]
            cols = {
                "sid": pa.array(sids, type=pa.int64()),
                "surface": pa.array(surfaces, type=pa.string()),
                "weight": pa.array([int(w) for w in weights], type=pa.int64()),
            }
            if has_payload:
                cols["payload"] = pa.array(payloads)
            if contexts_column is not None:
                ctx = batch.column(contexts_column).to_pylist()
                cols["contexts"] = pa.array(
                    [([c] if isinstance(c, str) else list(c or [])) for c in ctx],
                    type=pa.list_(pa.string()),
                )
            return pa.table(cols)

        tok_dir = os.path.join(self.store_dir, "tokens")
        sug_dir = os.path.join(self.store_dir, "suggestions")
        os.makedirs(tok_dir, exist_ok=True)
        os.makedirs(sug_dir, exist_ok=True)
        ds.map_batches(explode, batch_format="pyarrow").sort("token").write_parquet(
            tok_dir, row_group_size=512
        )
        ds.map_batches(suggestion_rows, batch_format="pyarrow").sort("sid").write_parquet(
            sug_dir, row_group_size=512
        )
        manifest = {
            "token_parts": _part_ranges(tok_dir, "token"),
            "suggestion_parts": _part_ranges(sug_dir, "sid"),
            "has_payload": has_payload,
            "has_contexts": contexts_column is not None,
        }
        tmp = os.path.join(self.store_dir, "manifest.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, os.path.join(self.store_dir, "manifest.json"))

    # -- routed reads -------------------------------------------------------

    def _covering(self, parts: list, lo, hi) -> list:
        return [p for p in parts if not (p["max"] < lo or p["min"] > hi)]

    def _read_tokens(self, lo: str, hi: str) -> pa.Table:
        import os

        import pyarrow.parquet as _pq

        tabs = []
        for p in self._covering(self.manifest["token_parts"], lo, hi):
            self.parts_read += 1
            tabs.append(
                _pq.read_table(
                    os.path.join(self.store_dir, "tokens", p["file"]),
                    filters=[("token", ">=", lo), ("token", "<=", hi)],
                )
            )
        if not tabs:
            return pa.table(
                {"token": pa.array([], type=pa.string()), "pos": pa.array([], type=pa.int64()),
                 "sid": pa.array([], type=pa.int64()), "weight": pa.array([], type=pa.int64())}
            )
        return pa.concat_tables(tabs)

    def _fetch_suggestions(self, sids: list[int]) -> dict[int, tuple]:
        import os

        import pyarrow.parquet as _pq

        out: dict[int, tuple] = {}
        if not sids:
            return out
        lo, hi = min(sids), max(sids)
        want = set(sids)
        for p in self._covering(self.manifest["suggestion_parts"], lo, hi):
            self.parts_read += 1
            t = _pq.read_table(
                os.path.join(self.store_dir, "suggestions", p["file"]),
                filters=[("sid", "in", sorted(want))],
            )
            pay = t.column("payload").to_pylist() if "payload" in t.column_names else [None] * t.num_rows
            ctx = (
                t.column("contexts").to_pylist()
                if "contexts" in t.column_names
                else [None] * t.num_rows
            )
            for sid, surf, w, pl, cx in zip(
                t.column("sid").to_pylist(), t.column("surface").to_pylist(),
                t.column("weight").to_pylist(), pay, ctx,
            ):
                out[sid] = (surf, w, pl, cx)
        return out

    # -- lookup -------------------------------------------------------------

    def _candidates(self, key: str, all_terms_required: bool):
        """-> (cands: {sid: (weight, min_pos, n_clauses_matched)}, n_clauses,
        matched_tokens: set, prefix_token: str|None)."""
        # last token is a PREFIX unless the key ends past it (reference checks
        # the final token's endOffset vs key length)
        last_complete = not key or not key[-1].isalnum()
        toks = self.analyzer(key)
        if not toks:
            return {}, 0, set(), None
        exact, prefix_token = (toks, None) if last_complete else (toks[:-1], toks[-1])
        clauses = []  # each: dict sid -> (weight, pos)
        matched_tokens = set(exact)
        for t in dict.fromkeys(exact):
            tab = self._read_tokens(t, t)
            clauses.append(
                dict(zip(tab.column("sid").to_pylist(),
                         zip(tab.column("weight").to_pylist(), tab.column("pos").to_pylist())))
            )
        if prefix_token is not None:
            tab = self._read_tokens(prefix_token, prefix_token + self._HI)
            best: dict[int, tuple] = {}
            for sid, w, pos in zip(
                tab.column("sid").to_pylist(), tab.column("weight").to_pylist(),
                tab.column("pos").to_pylist(),
            ):
                cur = best.get(sid)
                if cur is None or pos < cur[1]:
                    best[sid] = (w, pos)
            clauses.append(best)
        cands: dict[int, list] = {}
        for cl in clauses:
            for sid, (w, pos) in cl.items():
                e = cands.get(sid)
                if e is None:
                    cands[sid] = [w, pos, 1]
                else:
                    e[1] = min(e[1], pos)
                    e[2] += 1
        if all_terms_required:
            need = len(clauses)
            cands = {s: e for s, e in cands.items() if e[2] == need}
        return cands, len(clauses), matched_tokens, prefix_token

    def _rank(self, cands: dict) -> list[tuple[int, float]]:
        """[(sid, score)] best-first; AnalyzingInfix ranks purely by weight."""
        return sorted(((s, float(e[0])) for s, e in cands.items()),
                      key=lambda x: (-x[1], x[0]))

    def lookup(
        self, key: str, k: int = 5, *, all_terms_required: bool = True,
        do_highlight: bool = False, contexts: "set | None" = None,
    ) -> list[dict]:
        """``contexts``: when given (and the store carries a contexts
        column), only suggestions tagged with at least one of these labels
        return — Lookup(key, contexts, ...) semantics. Candidates fetch in
        weight-ordered chunks until k context-matching rows are found, so
        the filter never forces a full candidate fetch."""
        cands, _n, matched_tokens, prefix_token = self._candidates(key, all_terms_required)
        ranked = self._rank(cands)
        if contexts is not None and not self.manifest.get("has_contexts"):
            raise ValueError("store was built without a contexts column")
        wanted = set(contexts) if contexts is not None else None
        out = []
        chunk = max(4 * k, 64) if wanted is not None else k
        for i in range(0, len(ranked), chunk):
            page = ranked[i : i + chunk]
            info = self._fetch_suggestions([s for s, _ in page])
            for sid, score in page:
                surf, w, pl, cx = info[sid]
                if wanted is not None and not (wanted & set(cx or [])):
                    continue
                row = {"surface": surf, "weight": int(w), "score": score, "sid": sid}
                if self.manifest.get("has_payload"):
                    row["payload"] = pl
                if do_highlight:
                    row["highlighted"] = self._highlight(
                        surf, matched_tokens, prefix_token
                    )
                out.append(row)
                if len(out) == k:
                    return out
            if len(out) == k:
                break
        return out

    def _highlight(self, surface: str, matched: set, prefix_token: str | None) -> str:
        """Whole-token <b> for exact matches; AddPrefixMatch semantics for the
        prefix token (only the typed prefix is bolded). Offsets come from an
        alnum-run scan of the surface, each run re-analyzed — equivalent to
        the reference's offset-carrying token stream on standard text."""
        import re

        out, i = [], 0
        for m in re.finditer(r"[A-Za-z0-9]+", surface):
            start, end = m.span()
            if start > i:
                out.append(surface[i:start])
            raw = surface[start:end]
            terms = self.analyzer(raw)
            tok = terms[0] if terms else raw.lower()
            if tok in matched:
                out.append(f"<b>{raw}</b>")
            elif prefix_token is not None and tok.startswith(prefix_token):
                cut = start + len(prefix_token)
                out.append(f"<b>{surface[start:cut]}</b>{surface[cut:end]}")
            else:
                out.append(raw)
            i = end
        out.append(surface[i:])
        return "".join(out)


class BlendedInfixSuggester(AnalyzingInfixSuggester):
    """BlendedInfixSuggester analog (reference
    Suggest/Suggest/Analyzing/BlendedInfixSuggester.cs:35): the weight is
    blended with the POSITION of the first matched token in the suggestion —
    POSITION_LINEAR: weight*(1 - 0.10*min(position, 10)); POSITION_RECIPROCAL:
    weight/(1+position) (CalculateCoefficient). The reference approximates by
    re-ranking the top num*numFactor weight-ordered hits; here the blend is
    computed over ALL candidates (positions ride in the token store), which
    is exact and needs no numFactor over-fetch."""

    LINEAR_COEF = 0.10

    def __init__(self, *args, blender_type: str = "position_linear", **kw):
        if blender_type not in ("position_linear", "position_reciprocal"):
            raise ValueError(f"unknown blender_type {blender_type!r}")
        self.blender_type = blender_type
        super().__init__(*args, **kw)

    def _coefficient(self, position: int) -> float:
        if self.blender_type == "position_linear":
            return 1.0 - self.LINEAR_COEF * min(position, 10)
        return 1.0 / (1.0 + position)

    def _rank(self, cands: dict) -> list[tuple[int, float]]:
        return sorted(
            ((s, e[0] * self._coefficient(e[1])) for s, e in cands.items()),
            key=lambda x: (-x[1], x[0]),
        )


def _part_ranges(parts_dir: str, column: str) -> list[dict]:
    """Per-part [min, max] of a sorted column — exact first/last row reads,
    the merge.py parts-manifest pattern (footer stats may be truncated)."""
    import os

    import pyarrow.parquet as _pq

    out = []
    for f in sorted(os.listdir(parts_dir)):
        if not f.endswith(".parquet"):
            continue
        pf = _pq.ParquetFile(os.path.join(parts_dir, f))
        nrows = pf.metadata.num_rows
        if nrows == 0:
            pf.close()
            os.remove(os.path.join(parts_dir, f))
            continue
        lo = pf.read_row_group(0, columns=[column]).column(column)[0].as_py()
        last = pf.read_row_group(pf.metadata.num_row_groups - 1, columns=[column])
        hi = last.column(column)[-1].as_py()
        pf.close()
        out.append({"file": f, "min": lo, "max": hi, "rows": nrows})
    out.sort(key=lambda p: (p["min"], p["max"]))
    return out


def suggest_word_breaks(
    searcher, term: str, *, k: int = 5, min_part_len: int = 2, field: str = "content"
) -> list[tuple[tuple[str, str], int]]:
    """Split an out-of-vocabulary term into two dictionary words
    (WordBreakSpellChecker.SuggestWordBreaks, two-part case). Ranked by the
    SUM of the parts' document frequencies, desc."""
    out = []
    parts = []
    for i in range(min_part_len, len(term) - min_part_len + 1):
        parts.append((term[:i], term[i:]))
    wanted = sorted({w for p in parts for w in p})
    df = searcher._stats_for_terms(wanted, field)
    for a, b in parts:
        if df.get(a, 0) > 0 and df.get(b, 0) > 0:
            out.append(((a, b), df[a] + df[b]))
    out.sort(key=lambda x: (-x[1], x[0]))
    return out[:k]


def suggest_word_combinations(
    searcher, terms: list[str], *, k: int = 5, field: str = "content"
) -> list[tuple[str, int]]:
    """Join adjacent query terms into one dictionary word
    (WordBreakSpellChecker.SuggestWordCombinations). Ranked by the combined
    word's df desc."""
    cands = ["".join(terms[i : i + 2]) for i in range(len(terms) - 1)]
    df = searcher._stats_for_terms(sorted(set(cands)), field)
    out = [(c, df[c]) for c in dict.fromkeys(cands) if df.get(c, 0) > 0]
    out.sort(key=lambda x: (-x[1], x[0]))
    return out[:k]
