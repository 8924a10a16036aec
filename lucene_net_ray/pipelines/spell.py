"""Classic n-gram SpellChecker + string distances (Suggest/Spell analogs).

Reference:
  Spell/SpellChecker.cs:52 — a side index of word n-grams: for word length
    l the gram sizes are GetMin/GetMax (l>5: 3..4, l==5: 2..3, else 1..2);
    the first gram of each size is ALSO indexed as a boosted "start" gram
    (bStart=2.0) and the last as an "end" gram (bEnd=1.0). SuggestSimilar
    ORs every gram of the misspelling, takes the 10*numSug best candidates
    by that gram score, rescoring each by a pluggable StringDistance,
    dropping those under ``accuracy`` (0.5), ranked score-then-freq.
  Spell/LevensteinDistance.cs — 1 - edits/max_len.
  Spell/JaroWinklerDistance.cs — Jaro with Winkler prefix bonus over
    threshold 0.7 (matches window max(len/2-1, 0), transpositions/2).
  Spell/NGramDistance.cs — n-gram-cost edit distance with (n-1)-char
    null prefix and prefix-match discounting.

The side index is a sorted-parts store keyed on the gram
(state/sorted_parts.py, shared with the suggesters): build = one Ray pass +
sort; a lookup reads only the row groups covering its ~dozen grams, never
the vocabulary.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data


# ---------------------------------------------------------------------------
# string distances (all return SIMILARITY in [0,1], 1 = identical — the
# reference's GetDistance convention)
# ---------------------------------------------------------------------------

def levenstein_distance(s1: str, s2: str) -> float:
    """LevensteinDistance.GetDistance: 1 - edit_distance / max(len)."""
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    prev = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1, 1):
        cur = [i]
        for j, c2 in enumerate(s2, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (c1 != c2)))
        prev = cur
    return 1.0 - prev[-1] / max(len(s1), len(s2))


def jaro_winkler_distance(s1: str, s2: str, *, threshold: float = 0.7) -> float:
    """JaroWinklerDistance.GetDistance (matches window, transpositions/2,
    Winkler bonus min(0.1, 1/max_len) * prefix when jaro >= threshold)."""
    if not s1 or not s2:
        return 1.0 if s1 == s2 else 0.0
    if len(s1) > len(s2):
        mx, mn = s1, s2
    else:
        mx, mn = s2, s1
    rng = max(len(mx) // 2 - 1, 0)
    match_idx = [-1] * len(mn)
    match_flags = [False] * len(mx)
    matches = 0
    for mi, c1 in enumerate(mn):
        for xi in range(max(mi - rng, 0), min(mi + rng + 1, len(mx))):
            if not match_flags[xi] and c1 == mx[xi]:
                match_idx[mi] = xi
                match_flags[xi] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    ms1 = [mn[i] for i in range(len(mn)) if match_idx[i] != -1]
    ms2 = [mx[i] for i in range(len(mx)) if match_flags[i]]
    transpositions = sum(a != b for a, b in zip(ms1, ms2)) // 2
    prefix = 0
    for a, b in zip(s1, s2):
        if a != b:
            break
        prefix += 1
    m = float(matches)
    j = (m / len(s1) + m / len(s2) + (m - transpositions) / m) / 3.0
    if j < threshold:
        return j
    return j + min(0.1, 1.0 / len(mx)) * prefix * (1.0 - j)


def ngram_distance(s1: str, s2: str, *, n: int = 2) -> float:
    """NGramDistance.GetDistance: edit distance over n-gram windows with a
    (n-1)-null prefix and prefix-match discounting, normalized by max len."""
    sl, tl = len(s1), len(s2)
    if sl == 0 or tl == 0:
        return 1.0 if sl == tl else 0.0
    if sl < n or tl < n:
        cost = sum(a == b for a, b in zip(s1, s2))
        return cost / max(sl, tl)
    sa = "\0" * (n - 1) + s1
    p = [float(i) for i in range(sl + 1)]
    for j in range(1, tl + 1):
        if j < n:
            t_j = "\0" * (n - j) + s2[:j]
        else:
            t_j = s2[j - n : j]
        d = [float(j)] + [0.0] * sl
        for i in range(1, sl + 1):
            cost = 0
            tn = n
            for ni in range(n):
                if sa[i - 1 + ni] != t_j[ni]:
                    cost += 1
                elif sa[i - 1 + ni] == "\0":
                    tn -= 1
            ec = cost / tn
            d[i] = min(d[i - 1] + 1, p[i] + 1, p[i - 1] + ec)
        p = d
    return 1.0 - p[sl] / max(sl, tl)


STRING_DISTANCES = {
    "levenstein": levenstein_distance,
    "jaro_winkler": jaro_winkler_distance,
    "ngram": ngram_distance,
}


def _gram_bounds(length: int) -> tuple[int, int]:
    """SpellChecker.GetMin/GetMax."""
    if length > 5:
        return 3, 4
    if length == 5:
        return 2, 3
    return 1, 2


def _form_grams(word: str, ng: int) -> list[str]:
    return [word[i : i + ng] for i in range(len(word) - ng + 1)]


class SpellChecker:
    """n-gram spell checker over a word dictionary Dataset (columns: word
    [, freq]) or a searcher's term dictionary (LuceneDictionary analog).

    Store layout (the suggesters' one-store layout, suggest._write_store):
      parts/  (gram, kind, word, freq) sorted by gram; kind 0=middle,
              1=start (boost 2.0), 2=end (boost 1.0) — the reference's
              separate start/end fields become a kind column.
    """

    B_START, B_END = 2.0, 1.0

    def __init__(
        self,
        ds: ray.data.Dataset | None = None,
        *,
        store_dir: str | None = None,
        word_column: str = "word",
        freq_column: str | None = None,
        accuracy: float = 0.5,
        distance: str = "levenstein",
    ):
        import os

        from .suggest import _open_store, _store_dir, _write_store

        self.accuracy = accuracy
        self.distance = STRING_DISTANCES[distance]
        store_dir = _store_dir(self, store_dir, "lnr_spell_")
        if not os.path.exists(os.path.join(store_dir, "manifest.json")):
            if ds is None:
                raise FileNotFoundError(f"no spell store at {store_dir} and no ds")

            def explode(batch: pa.Table) -> pa.Table:
                words = batch.column(word_column).to_pylist()
                freqs = (
                    [int(f) for f in batch.column(freq_column).to_pylist()]
                    if freq_column
                    else [1] * len(words)
                )
                g, k, w, fr = [], [], [], []
                for word, freq in zip(words, freqs):
                    lo, hi = _gram_bounds(len(word))
                    for ng in range(lo, hi + 1):
                        grams = _form_grams(word, ng)
                        if not grams:
                            continue
                        for i, gram in enumerate(grams):
                            g.append(gram)
                            k.append(0)
                            w.append(word)
                            fr.append(freq)
                        g.append(grams[0]); k.append(1); w.append(word); fr.append(freq)
                        g.append(grams[-1]); k.append(2); w.append(word); fr.append(freq)
                return pa.table(
                    {
                        "gram": pa.array(g, type=pa.string()),
                        "kind": pa.array(k, type=pa.int8()),
                        "word": pa.array(w, type=pa.string()),
                        "freq": pa.array(fr, type=pa.int64()),
                    }
                )

            _write_store(ds.map_batches(explode, batch_format="pyarrow"), store_dir, "gram")
        self._store, _ = _open_store(store_dir, "gram")

    @classmethod
    def from_searcher(cls, searcher, **kw) -> "SpellChecker":
        """LuceneDictionary analog: the index's term dictionary (with df as
        freq) becomes the word list — one Ray aggregation, no driver list."""
        from .merge import global_term_stats

        stats = global_term_stats(searcher.index).select_columns(["term", "df"])
        return cls(stats, word_column="term", freq_column="df", **kw)

    @property
    def parts_read(self) -> int:
        return self._store.parts_read

    def suggest_similar(
        self, word: str, num_sug: int = 5, *, accuracy: float | None = None,
        min_freq: int = 0,
    ) -> list[tuple[str, float]]:
        """[(suggestion, distance score)] best-first — SuggestSimilar with
        the gram-boost candidate query, distance rescoring, and the
        score-then-freq comparator. ``min_freq`` plays the user-index freq
        gate (SUGGEST_MORE_POPULAR passes the misspelling's own freq)."""
        accuracy = self.accuracy if accuracy is None else accuracy
        lo, hi = _gram_bounds(len(word))
        scores: dict[str, float] = {}
        freqs: dict[str, int] = {}
        for ng in range(lo, hi + 1):
            grams = _form_grams(word, ng)
            if not grams:
                continue
            wanted = {}
            for i, gram in enumerate(grams):
                wanted.setdefault(gram, [False, False, 0])
                wanted[gram][2] += 1
            wanted[grams[0]][0] = True
            wanted[grams[-1]][1] = True
            for gram, (is_start, is_end, mult) in wanted.items():
                tab = self._store.read(gram, gram, ["kind", "word", "freq"])
                if tab is None:
                    continue
                for kind, w2, f2 in zip(
                    tab.column("kind").to_pylist(), tab.column("word").to_pylist(),
                    tab.column("freq").to_pylist(),
                ):
                    if kind == 0:
                        add = 1.0 * mult
                    elif kind == 1 and is_start:
                        add = self.B_START
                    elif kind == 2 and is_end:
                        add = self.B_END
                    else:
                        continue
                    scores[w2] = scores.get(w2, 0.0) + add
                    freqs[w2] = int(f2)
        # 10*numSug best gram-score candidates, then distance rescoring
        cands = sorted(scores.items(), key=lambda x: (-x[1], x[0]))[: 10 * num_sug]
        out = []
        for w2, _gs in cands:
            if w2 == word:
                continue  # "don't suggest a word for itself"
            if freqs.get(w2, 0) < min_freq or freqs.get(w2, 0) < 1:
                continue
            d = self.distance(word, w2)
            if d < accuracy:
                continue
            out.append((w2, d))
        out.sort(key=lambda x: (-x[1], -freqs.get(x[0], 0), x[0]))
        return out[:num_sug]
