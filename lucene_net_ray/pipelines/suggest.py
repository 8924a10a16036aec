"""Suggesters beyond the term-dict prefix/spell utilities in collectors.py.

  AnalyzingSuggester analog  reference Suggest/Suggest/Analyzing/
      AnalyzingSuggester.cs:88 — completions are looked up by the ANALYZED
      form of the key but return the ORIGINAL surface form, ranked by weight.
      The FST is replaced by (analyzed_key, surface, weight) rows built with
      one Ray aggregation; lookup is one prefix-range read.
  WordBreakSpellChecker analog  reference Suggest/Spell/
      WordBreakSpellChecker.cs — suggestWordBreaks splits an out-of-
      vocabulary term into dictionary words; suggestWordCombinations joins
      adjacent query terms into one dictionary word. Both rank by the
      combined document frequency.

Storage: every suggester (and spell.SpellChecker) lives on disk in the
sorted-parts store of state/sorted_parts.py — key-sorted Parquet parts plus
per-part [min, max] entries in the store's manifest.json — so a lookup reads
only the parts covering its key range and the driver holds the manifest
alone, never the vocabulary.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import ray.data

from ..functions.analysis import Analyzer
from ..state.segment import atomic_write_json
from ..state.sorted_parts import SortedParts, write_sorted_parts

_RANGE_HI = "\U0010FFFF"


def _write_store(rows: ray.data.Dataset, store_dir: str, key: str, **extra) -> None:
    """Commit ``rows`` at ``store_dir``: parts/ sorted by ``key``, then a
    manifest.json listing them (plus ``extra`` fields)."""
    entries = write_sorted_parts(rows.sort(key), os.path.join(store_dir, "parts"), key)
    atomic_write_json(os.path.join(store_dir, "manifest.json"), {"parts": entries, **extra})


def _open_store(store_dir: str, key: str) -> tuple[SortedParts, dict]:
    """The committed store at ``store_dir`` and its manifest."""
    with open(os.path.join(store_dir, "manifest.json")) as f:
        manifest = json.load(f)
    return SortedParts(os.path.join(store_dir, "parts"), manifest["parts"], key), manifest


class AnalyzingSuggester:
    """AnalyzingSuggester analog: lookup by the ANALYZED form of the key,
    returning the ORIGINAL surface ranked by weight. The FST is replaced by
    a sorted-parts store keyed on the analyzed form, with range-routed
    lookups (the reference's in-RAM FST is suggester-sized; at corpus scale
    the vocabulary is not, so the store lives on disk and the driver holds
    only the manifest)."""

    def __init__(
        self,
        ds: ray.data.Dataset | None = None,
        *,
        store_dir: str | None = None,
        surface_column: str = "suggestion",
        weight_column: str = "weight",
        analyzer: Analyzer | None = None,
    ):
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
            _write_store(rows, store_dir, "key")
        self._store, _ = _open_store(store_dir, "key")

    @property
    def parts_read(self) -> int:
        return self._store.parts_read

    def lookup(self, prefix: str, k: int = 5) -> list[tuple[str, int]]:
        """Top-k (surface, weight) whose ANALYZED key starts with the
        analyzed prefix; ties by surface asc."""
        key = " ".join(self._analyzer(prefix))
        tab = self._store.read(key, key + _RANGE_HI)
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
        tab = self._store.read(head, head + _RANGE_HI)
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
    (gram -> count per order) is a sorted-parts store keyed on the gram, so a
    lookup's backoff walk is a few routed range reads.

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
            _write_store(rows, store_dir, "gram", total_uni=max(int(total_uni), 1))
        self._store, manifest = _open_store(store_dir, "gram")
        self._total_uni = manifest["total_uni"]

    @property
    def parts_read(self) -> int:
        return self._store.parts_read

    def _candidates(self, ctx_key: str, prefix: str, order: int) -> dict[str, int]:
        """{gram: count} of length `order` starting with 'ctx_key ' + prefix*
        — one routed range read."""
        head = (ctx_key + " " + prefix) if ctx_key else prefix
        tab = self._store.read(head, head + _RANGE_HI)
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
        out: dict[str, int] = {}
        for t in self._store.scan(["gram", "n"]):
            out.update(
                zip(t.column("gram").to_pylist(), (int(v) for v in t.column("n").to_pylist()))
            )
        return out

    def _count_of(self, key: str) -> int:
        tab = self._store.read(key, key, ["n"])
        return 0 if tab is None else int(tab.column("n")[0].as_py())

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
    suggester lives on disk, not the driver, as two sorted-parts stores
    (state/sorted_parts.py) whose entries share one manifest.json —
      store_dir/tokens/       (token, pos, sid, weight) sorted by token
      store_dir/suggestions/  (sid, surface, weight[, payload][, contexts])
                              sorted by sid
    A lookup reads each query token's range of ``tokens`` and each ranked
    sid's row of ``suggestions`` — O(query tokens + k) row groups, never
    O(vocabulary). ``parts_read`` counts part-file reads so tests can
    assert routing stays lazy.

    The reference's ``textgrams`` EdgeNGram field exists to make short-
    prefix queries cheap in an FST; a sorted-parquet range scan is already
    one bounded read, so no ngram sidecar is needed.
    """

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
        self.analyzer = analyzer or Analyzer()
        self.store_dir = store_dir
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
        self._tokens = SortedParts(
            os.path.join(store_dir, "tokens"), self.manifest["token_parts"], "token"
        )
        self._suggestions = SortedParts(
            os.path.join(store_dir, "suggestions"), self.manifest["suggestion_parts"], "sid"
        )

    @property
    def parts_read(self) -> int:
        return self._tokens.parts_read + self._suggestions.parts_read

    def _build(
        self, ds, surface_column, weight_column, payload_column, id_column,
        contexts_column=None,
    ):
        import hashlib as _hashlib

        analyzer = self.analyzer
        has_payload = payload_column is not None

        def suggestion_columns(batch: pa.Table) -> tuple[list, list, list | None, list[int]]:
            """(surfaces, weights, payloads, sids); the sid is the id column,
            else a 63-bit md5 of (surface, weight, payload)."""
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
            return surfaces, weights, payloads, sids

        def explode(batch: pa.Table) -> pa.Table:
            surfaces, weights, _, sids = suggestion_columns(batch)
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
            surfaces, weights, payloads, sids = suggestion_columns(batch)
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
        tokens = ds.map_batches(explode, batch_format="pyarrow").sort("token")
        suggestions = ds.map_batches(suggestion_rows, batch_format="pyarrow").sort("sid")
        atomic_write_json(
            os.path.join(self.store_dir, "manifest.json"),
            {
                "token_parts": write_sorted_parts(tokens, tok_dir, "token"),
                "suggestion_parts": write_sorted_parts(suggestions, sug_dir, "sid"),
                "has_payload": has_payload,
                "has_contexts": contexts_column is not None,
            },
        )

    # -- routed reads -------------------------------------------------------

    def _token_rows(self, lo: str, hi: str):
        """(sid, weight, pos) of every token row with lo <= token <= hi."""
        t = self._tokens.read(lo, hi, ["sid", "weight", "pos"])
        if t is None:
            return []
        return zip(t.column("sid").to_pylist(), t.column("weight").to_pylist(),
                   t.column("pos").to_pylist())

    def _fetch_suggestions(self, sids: list[int]) -> dict[int, tuple]:
        """sid -> (surface, weight, payload, contexts), one point read each."""
        out: dict[int, tuple] = {}
        for sid in sorted(set(sids)):
            t = self._suggestions.read(sid, sid)
            if t is None:
                continue
            row = t.slice(t.num_rows - 1).to_pylist()[0]
            out[sid] = (row["surface"], row["weight"], row.get("payload"), row.get("contexts"))
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
            clauses.append({sid: (w, pos) for sid, w, pos in self._token_rows(t, t)})
        if prefix_token is not None:
            best: dict[int, tuple] = {}
            for sid, w, pos in self._token_rows(prefix_token, prefix_token + _RANGE_HI):
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
