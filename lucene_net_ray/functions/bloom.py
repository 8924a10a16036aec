"""Bloom-filter term-skip sets — Codecs/Bloom analog.

Reference semantics (not copied):
  /root/reference/src/Lucene.Net.Codecs/Bloom/FuzzySet.cs — a SINGLE-hash
  bloom filter ("fuzzy set") over a power-of-2 bitset, position = hash &
  (size-1); sized so the expected saturation stays near a target (10%
  default, DefaultBloomFilterFactory.cs:34), downsized before saving to the
  smallest power-of-2 that keeps saturation under the target
  (FuzzySet.Downsize), and NOT saved at all when >90% saturated
  (DefaultBloomFilterFactory.IsSaturated). Used by
  BloomFilteringPostingsFormat.cs to answer "definitely absent" before
  touching the term dictionary — the win is skipping IO/fan-out for terms
  that don't exist (primary-key probes, fuzzy/spell candidate storms).

The hash here is a 64-bit polynomial hash (mod 2^64) instead of the
reference's MurmurHash2 — same no-false-negative contract, and it
vectorizes over Arrow string arrays without a per-term Python loop (the
build-side cost at millions of terms/segment). Downsizing works by folding
set-bit positions with the smaller mask, exactly the reference's
projection: ``pos & smaller_mask`` can only KEEP may-contain answers, so
no-false-negatives is preserved by construction.
"""

from __future__ import annotations

import numpy as np

_POLY = np.uint64(1099511628211)  # FNV64 prime as the polynomial base
_SEED = np.uint64(14695981039346656037)  # FNV64 offset basis


def _hash_many(terms) -> np.ndarray:
    """Vectorized 64-bit polynomial hash of UTF-8 strings.

    h = ((seed*P + b0)*P + b1)... = seed*P^len + Σ b_i·P^(len-1-i) mod 2^64
    — the closed form makes the whole batch ONE multiply + gather +
    np.add.reduceat over the flat byte buffer (uint64 wrap IS the modulus),
    no per-byte-position loop. A murmur3-style fmix64 finalizer decorrelates
    the low bits the bloom mask keeps (a raw polynomial hash has no
    avalanche: sequential terms land on adjacent bits, clustering false
    positives).
    """
    import pyarrow as pa

    arr = pa.array(terms, type=pa.string()) if not isinstance(terms, pa.Array) else terms
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = arr.cast(pa.large_string())
    buf_off = np.frombuffer(arr.buffers()[1], dtype=np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8) if arr.buffers()[2] else np.empty(0, np.uint8)
    off = buf_off[arr.offset : arr.offset + len(arr) + 1]
    lens = off[1:] - off[:-1]
    n = len(arr)
    max_len = int(lens.max()) if n else 0
    with np.errstate(over="ignore"):
        powers = np.empty(max_len + 1, dtype=np.uint64)
        powers[0] = 1
        for k in range(1, max_len + 1):  # O(max term length), not O(terms)
            powers[k] = powers[k - 1] * _POLY
        h = np.full(n, _SEED, dtype=np.uint64) * powers[lens]
        flat = data[off[0] : off[-1]].astype(np.uint64)
        if flat.size:
            ends_rel = (off[1:] - off[0]).astype(np.int64)
            per_byte_end = np.repeat(ends_rel, lens)
            exps = per_byte_end - 1 - np.arange(flat.size, dtype=np.int64)
            contrib = flat * powers[exps]
            nz = np.flatnonzero(lens)
            seg_starts = (ends_rel[nz] - lens[nz]).astype(np.int64)
            h[nz] += np.add.reduceat(contrib, seg_starts)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(29)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(32)
    return h


class FuzzySet:
    """Single-hash bloom set over a power-of-2 bitset (uint64 words)."""

    def __init__(self, words: np.ndarray, mask: int):
        assert (mask + 1) & mask == 0, "size must be a power of two"
        self.words = words  # uint64, (mask+1)/64 words
        self.mask = int(mask)

    # -- construction -------------------------------------------------------
    @classmethod
    def create_for_quality(cls, num_values: int, saturation: float = 0.10) -> "FuzzySet":
        """Smallest power-of-2 bitset where num_values/size <= saturation
        (FuzzySet.CreateSetBasedOnQuality analog), capped at 2^26 bits
        (8 MB) so one pathological segment cannot blow the manifest."""
        size = 64
        want = max(64, int(num_values / max(saturation, 1e-6)))
        while size < want and size < (1 << 26):
            size <<= 1
        return cls(np.zeros(size // 64, dtype=np.uint64), size - 1)

    def add_many(self, terms) -> None:
        pos = _hash_many(terms) & np.uint64(self.mask)
        bits = np.zeros(self.mask + 1, dtype=bool)  # packbits scatter beats
        bits[pos] = True                            # bitwise_or.at ~25x
        self.words |= np.packbits(bits, bitorder="little").view(np.uint64)

    # -- queries --------------------------------------------------------------
    def may_contain_many(self, terms) -> np.ndarray:
        pos = _hash_many(terms) & np.uint64(self.mask)
        w = self.words[(pos >> 6).astype(np.int64)]
        return (w >> (pos & np.uint64(63))) & np.uint64(1) != 0

    def may_contain(self, term: str) -> bool:
        return bool(self.may_contain_many([term])[0])

    def saturation(self) -> float:
        set_bits = int(np.unpackbits(self.words.view(np.uint8)).sum())
        return set_bits / float(self.mask + 1)

    # -- maintenance ----------------------------------------------------------
    def downsize(self, target_saturation: float = 0.10) -> "FuzzySet":
        """Fold into the smallest power-of-2 set that stays under the target
        saturation (FuzzySet.Downsize): project every set-bit position with
        the smaller mask. Returns self when already minimal."""
        positions = np.flatnonzero(np.unpackbits(self.words.view(np.uint8), bitorder="little"))
        cur = self
        mask = self.mask
        while mask > 63:
            smaller = mask >> 1
            projected = np.unique(positions & smaller)
            if projected.size / float(smaller + 1) > target_saturation:
                break
            mask = smaller
            positions = projected
        if mask == self.mask:
            return self
        words = np.zeros((mask + 1) // 64, dtype=np.uint64)
        np.bitwise_or.at(words, positions >> 6, np.uint64(1) << (positions & 63).astype(np.uint64))
        return FuzzySet(words, mask)

    # -- persistence ------------------------------------------------------------
    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(np.uint64(self.mask).tobytes())
            f.write(self.words.tobytes())

    @classmethod
    def load(cls, path: str) -> "FuzzySet":
        raw = np.fromfile(path, dtype=np.uint64)
        return cls(raw[1:].copy(), int(raw[0]))


def build_term_bloom(terms, saturation: float = 0.10, max_saturation: float = 0.90):
    """Build, downsize, and saturation-gate a term set for one segment.
    Returns None when the set would be >max_saturation full (the reference's
    'don't bother saving' rule)."""
    s = FuzzySet.create_for_quality(len(terms), saturation)
    if len(terms):
        s.add_many(terms)
    if s.saturation() > max_saturation:
        return None
    return s.downsize(saturation)
