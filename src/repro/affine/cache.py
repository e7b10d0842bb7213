"""Classification cache (paper §4.1: "no Boolean function needs to be classified twice")."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.affine.classify import AffineClassifier, Classification
from repro.affine.operations import AffineTransform


class ClassificationCache:
    """Memoising front-end for an :class:`AffineClassifier`.

    During cut rewriting the same cut functions recur constantly (carry
    chains, S-box slices, …); the paper highlights the cache as one of the two
    techniques that make classification affordable.  The cache also records
    hit statistics so the ablation benchmarks can report its effectiveness.
    """

    def __init__(self, classifier: Optional[AffineClassifier] = None) -> None:
        self.classifier = classifier or AffineClassifier()
        self._entries: Dict[Tuple[int, int], Classification] = {}
        #: batch-classified results awaiting their :meth:`classify` miss.
        self._prefetched: Dict[Tuple[int, int], Classification] = {}
        self.hits = 0
        self.misses = 0

    def classify(self, table: int, num_vars: int) -> Classification:
        """Classify with memoisation."""
        key = (table, num_vars)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self._prefetched.pop(key, None)
        if result is None:
            result = self.classifier.classify(table, num_vars)
        self._entries[key] = result
        return result

    def prefetch(self, keys: Iterable[Tuple[int, int]]) -> None:
        """Classify the uncached ``(table, num_vars)`` keys in batches.

        One :meth:`AffineClassifier.classify_many` call per arity; the
        results wait until :meth:`classify` asks for them, which counts
        each as the miss it is, so the statistics do not depend on whether
        a prefetch ran.  The rewriter asks for every key it prefetches
        within the same drain; should a drain fail half-way, the next
        prefetch drops the leftovers.
        """
        by_arity: Dict[int, List[int]] = {}
        for table, num_vars in dict.fromkeys(keys):
            if (table, num_vars) not in self._entries:
                by_arity.setdefault(num_vars, []).append(table)
        self._prefetched = {}
        for num_vars, tables in by_arity.items():
            results = self.classifier.classify_many(tables, num_vars)
            for table, result in zip(tables, results):
                self._prefetched[(table, num_vars)] = result

    def peek(self, table: int, num_vars: int) -> Optional[Classification]:
        """Cached classification for ``(table, num_vars)`` or ``None``.

        Unlike :meth:`classify` this never invokes the classifier and never
        perturbs the hit/miss statistics — it is the lookup used when warm
        starting from a persisted bundle, where touching the counters would
        make a restored run look like it classified everything again.
        """
        return self._entries.get((table, num_vars))

    # ------------------------------------------------------------------
    # persistence (warm-start bundles)
    # ------------------------------------------------------------------
    def keys(self) -> List[Tuple[int, int]]:
        """``(table, num_vars)`` keys of every cached classification."""
        return list(self._entries)

    def to_payload(self, keys: Optional[List[Tuple[int, int]]] = None) -> List[Dict]:
        """JSON-friendly list of cached classifications.

        ``None`` serialises every entry (the full-bundle case); a key subset
        produces a delta-sized payload in the identical entry format, sorted
        by key either way.
        """
        selected = (sorted(self._entries.items()) if keys is None
                    else sorted((key, self._entries[key]) for key in keys))
        return [
            {
                "table": entry.table,
                "num_vars": entry.num_vars,
                "representative": entry.representative,
                "transform": entry.from_representative.to_dict(),
                "method": entry.method,
                "canonical": entry.canonical,
            }
            for _, entry in selected
        ]

    def install_payload(self, payload: List[Dict], validate: bool = True,
                        origin: str = "bundle") -> int:
        """Install classifications from :meth:`to_payload` output.

        Every entry is checked before installation: the stored transform must
        rebuild the classified table from its representative, otherwise the
        bundle is stale or corrupt and loading it would poison every rewrite
        that trusts the cache.  Returns the number of entries installed
        (already-present keys are kept, matching the merge semantics of
        sharded runs).
        """
        installed = 0
        for position, data in enumerate(payload):
            try:
                transform = AffineTransform.from_dict(data["transform"])
                entry = Classification(
                    table=int(data["table"]),
                    num_vars=int(data["num_vars"]),
                    representative=int(data["representative"]),
                    from_representative=transform,
                    method=str(data.get("method", "spectral")),
                    canonical=bool(data.get("canonical", True)),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{origin}: malformed classification entry "
                    f"#{position}: {exc}") from exc
            if validate and not entry.verify():
                raise ValueError(
                    f"{origin}: classification entry #{position} for table "
                    f"{entry.table:#x} over {entry.num_vars} vars is corrupt: "
                    f"its transform does not rebuild the table from "
                    f"representative {entry.representative:#x}")
            # rebuild the elementary-operation view from the stored closed
            # form so loaded entries are indistinguishable from computed ones
            entry.ops = entry.from_representative.inverse().to_ops()
            key = (entry.table, entry.num_vars)
            if key not in self._entries:
                self._entries[key] = entry
                installed += 1
        return installed

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of classification requests served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all cached classifications and statistics."""
        self._entries.clear()
        self._prefetched = {}
        self.hits = 0
        self.misses = 0
