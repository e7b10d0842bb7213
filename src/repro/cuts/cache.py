"""Shared cut-function and implementation-plan cache.

During cut rewriting the same Boolean functions recur constantly — carry
chains, S-box slices, majority fragments — and in the seed every candidate
cut paid for (a) a fresh simulation of its cone and (b) a fresh trip through
:meth:`repro.mc.database.McDatabase.plan_for`.  This module centralises both
behind one object that the cut enumerator (:func:`repro.cuts.enumeration
.cut_function`) and the rewriter (:class:`repro.rewriting.rewrite
.CutRewriter`) share:

* **cone functions** are memoised per network, keyed by ``(root, leaves)``,
  and *content-addressed* across networks by canonical cone hash
  (:func:`repro.xag.structhash.cone_hash`).  The per-network memo
  subscribes to the bound network's mutation events: an in-place
  substitution (:meth:`repro.xag.graph.Xag.substitute_node`) invalidates
  only the entries rooted in the **dirty transitive fanout** of the rewired
  nodes, so memoised functions for untouched cones survive whole
  convergence flows.  Binding to a different network — or a rollback of the
  bound one — still drops the memo wholesale (:meth:`CutFunctionCache.bind`),
  but the content-addressed table store survives *everything* except
  :meth:`CutFunctionCache.clear`: a cone hash names a structure, not node
  indices, so its truth table can never go stale.  Structurally identical
  cones in different circuits — or restored from another run's bundle —
  resolve without a single simulation.  The per-root ``(root, leaves)``
  key lists survive purely as the invalidation index of the memo layer;

* **implementation plans** are memoised by the network-independent key
  ``(truth table, num_vars)``.  This is the first level of a two-level
  canonical-form scheme: the exact table resolves here, and a miss falls
  through to the :class:`~repro.mc.database.McDatabase`, which keys recipes
  by the *affine class representative*.  The net effect is that a cut
  function hits the MC database (and affine classification) once per batch
  of circuits, not once per cut per round.

The cache is deliberately long-lived: :func:`repro.rewriting.pipeline.run_pipeline`
keeps one across all passes and rounds of a flow, and
:mod:`repro.engine` keeps one across a whole batch of benchmark circuits.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.mc.database import ImplementationPlan, McDatabase
from repro.tt.bits import projection, table_mask
from repro.xag.graph import SubstitutionResult, Xag, lit_node
from repro.xag.structhash import cone_hash as _cone_hash


class CutFunctionCache:
    """Memoising front-end for cut-cone simulation and MC database plans."""

    def __init__(self, database: Optional[McDatabase] = None) -> None:
        # explicit `is None` check — an empty McDatabase is falsy (it defines
        # __len__) but must still be honoured.
        self.database = database if database is not None else McDatabase()
        self._functions: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        #: cone interiors (topological node lists), same keys and lifetime
        #: as the cone-function memo.
        self._interiors: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        #: root node → memo keys rooted there, for per-root invalidation.
        self._root_keys: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        #: canonical cone hashes, same keys and lifetime as the memo.
        self._cone_hashes: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        #: cone hash → truth table: the content-addressed store.  Never
        #: invalidated (a hash names a structure), only :meth:`clear` drops it.
        self._cone_tables: Dict[int, int] = {}
        self._plans: Dict[Tuple[int, int], ImplementationPlan] = {}
        self._bound_xag: Optional[Xag] = None
        self._bound_epoch = -1
        self._bound_mutation_epoch = -1
        self.function_hits = 0
        self.function_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        #: cone-function entries dropped by substitution events.
        self.function_invalidations = 0
        #: memo misses served by the content-addressed table store.
        self.cone_hash_hits = 0

    @classmethod
    def ensure(cls, cut_cache: Optional["CutFunctionCache"],
               database: Optional[McDatabase]) -> "CutFunctionCache":
        """Reconcile an optional shared cache with an optional database.

        Returns ``cut_cache`` when given (raising if it is bound to a
        *different* explicit ``database``), otherwise a fresh cache over
        ``database``.  This is the single place encoding the pairing rule for
        every API that accepts both parameters.
        """
        if cut_cache is None:
            return cls(database)
        if database is not None and cut_cache.database is not database:
            raise ValueError("cut_cache is bound to a different database")
        return cut_cache

    # ------------------------------------------------------------------
    # cone functions (per network epoch)
    # ------------------------------------------------------------------
    def bind(self, xag: Xag) -> None:
        """Attach the cone-function memo to ``xag``.

        Keys of the memo are node indices, so entries from a different
        network are meaningless; binding to a new network drops them, as
        does a rollback of the bound network (rollback recycles node
        indices — detected via the network's rollback epoch, exactly like
        :meth:`repro.xag.bitsim.BitSimulator.sync`).  In-place substitutions
        of the bound network do *not* drop the memo: the cache subscribes to
        the network's mutation events and surgically removes only the
        entries whose cone may contain a rewired node (the dirty transitive
        fanout).  The plan memo is keyed by truth tables and survives
        rebinding.
        """
        if (xag is self._bound_xag
                and xag._rollback_epoch == self._bound_epoch
                and xag._mutation_epoch == self._bound_mutation_epoch):
            return
        self._functions.clear()
        self._interiors.clear()
        self._root_keys.clear()
        self._cone_hashes.clear()
        if self._bound_xag is not None and self._bound_xag is not xag:
            self._bound_xag.unsubscribe(self)
        self._bound_xag = xag
        self._bound_epoch = xag._rollback_epoch
        self._bound_mutation_epoch = xag._mutation_epoch
        xag.subscribe(self)

    def on_substitution(self, xag: Xag, result: SubstitutionResult) -> None:
        """Drop memoised cone functions invalidated by an in-place edit.

        A memo entry ``(root, leaves)`` is only stale when a rewired (or
        killed/revived) node sits *inside* its cone, which requires ``root``
        to lie in the transitive fanout of that node — so everything outside
        the dirty TFO survives.
        """
        if xag is not self._bound_xag:
            return
        functions = self._functions
        interiors = self._interiors
        root_keys = self._root_keys
        cone_hashes = self._cone_hashes
        for root in result.affected(xag):
            keys = root_keys.pop(root, None)
            if not keys:
                continue
            for key in keys:
                if functions.pop(key, None) is not None:
                    self.function_invalidations += 1
                interiors.pop(key, None)
                cone_hashes.pop(key, None)
        self._bound_mutation_epoch = xag._mutation_epoch

    def on_rollback(self, xag: Xag) -> None:
        """A rollback recycles node indices: drop the whole cone-function memo.

        The content-addressed table store survives — cone hashes name
        structures, so a recycled node index cannot alias a stale entry.
        """
        if xag is not self._bound_xag:
            return
        self._functions.clear()
        self._interiors.clear()
        self._root_keys.clear()
        self._cone_hashes.clear()
        self._bound_epoch = xag._rollback_epoch

    def cone_function(self, xag: Xag, root: int, leaves: Tuple[int, ...],
                      interior: Optional[Sequence[int]] = None) -> int:
        """Truth table of ``root`` over ``leaves`` (leaf ``i`` = variable ``i``).

        Resolution is two-level: the per-network ``(root, leaves)`` memo
        first, then the content-addressed store under the cone's canonical
        hash — a hash determines the cone structure over its leaves, hence
        the truth table, so a content hit (counted in ``cone_hash_hits``)
        is exact even when the table was computed in a different network,
        round or process.  Only a miss at both levels simulates.

        ``interior`` may pass an already-computed topological ordering of the
        cone (as produced by :func:`repro.cuts.enumeration.cut_cone`) to skip
        the traversal on a memo miss.
        """
        self.bind(xag)
        key = (root, leaves)
        table = self._functions.get(key)
        if table is not None:
            self.function_hits += 1
            return table
        if interior is None:
            interior = self.cone_interior(xag, root, leaves)
        digest = self.cone_hash_for(xag, root, leaves, interior)
        table = self._cone_tables.get(digest)
        if table is not None:
            self.function_hits += 1
            self.cone_hash_hits += 1
        else:
            self.function_misses += 1
            table = _simulate_cone(xag, root, leaves, interior)
            self._cone_tables[digest] = table
        self._functions[key] = table
        self._register_key(root, key)
        return table

    def cone_hash_for(self, xag: Xag, root: int, leaves: Tuple[int, ...],
                      interior: Optional[Sequence[int]] = None) -> int:
        """Canonical content hash of the ``(root, leaves)`` cone, memoised.

        Shares the memo layer's lifetime and per-root invalidation: a hash
        is only stale when a rewired node sits inside the cone, exactly the
        condition that evicts the cone's other memo entries.
        """
        self.bind(xag)
        key = (root, leaves)
        digest = self._cone_hashes.get(key)
        if digest is None:
            if interior is None:
                interior = self.cone_interior(xag, root, leaves)
            digest = _cone_hash(xag, root, leaves, interior)
            self._cone_hashes[key] = digest
            self._register_key(root, key)
        return digest

    def has_cone_function(self, xag: Xag, root: int, leaves: Tuple[int, ...],
                          interior: Optional[Sequence[int]] = None) -> bool:
        """True when :meth:`cone_function` will resolve without simulating.

        The batching rewriter asks this while collecting the cones a drain
        is missing: a memo entry answers outright; otherwise the cone is
        hashed and a content-store hit is *promoted* into the memo (counted
        in ``cone_hash_hits`` now, as a ``function_hits`` when
        :meth:`cone_function` serves it) so the batch only simulates cones
        no run has ever seen.
        """
        self.bind(xag)
        key = (root, leaves)
        if key in self._functions:
            return True
        digest = self.cone_hash_for(xag, root, leaves, interior)
        table = self._cone_tables.get(digest)
        if table is None:
            return False
        self.cone_hash_hits += 1
        self._functions[key] = table
        self._register_key(root, key)
        return True

    def cone_interior(self, xag: Xag, root: int,
                      leaves: Tuple[int, ...]) -> List[int]:
        """Topologically-ordered cone of ``(root, leaves)``, memoised.

        The traversal shares the cone-function memo's invalidation rule: a
        cached interior can only go stale when a rewired node sits inside
        the cone, which puts ``root`` in the dirty transitive fanout.
        """
        self.bind(xag)
        key = (root, leaves)
        interior = self._interiors.get(key)
        if interior is None:
            from repro.cuts.enumeration import cut_cone
            interior = cut_cone(xag, root, leaves)
            self._interiors[key] = interior
            self._register_key(root, key)
        return interior

    def install_cone_functions(self, xag: Xag,
                               entries: Sequence[Tuple[Tuple[int, Tuple[int, ...]], int]]) -> None:
        """Store batch-computed cone functions, counting one miss each.

        This is the install half of per-drain batched cone simulation: the
        rewriter collects the cones a drain is missing, evaluates them in
        one vectorised sweep on an accelerated backend, and lands them here
        with the same hit/miss accounting as individual
        :meth:`cone_function` misses — the counters stay backend-invariant.
        """
        self.bind(xag)
        functions = self._functions
        for key, table in entries:
            if key in functions:
                continue
            self.function_misses += 1
            functions[key] = table
            self._register_key(key[0], key)
            # land the table in the content-addressed store as well: the
            # interior is memoised from the drain's own enumeration, so the
            # hash costs one walk of nodes that were just simulated anyway.
            self._cone_tables[self.cone_hash_for(xag, key[0], key[1])] = table

    def prime_interiors(self, xag: Xag,
                        entries: Sequence[Tuple[Tuple[int, Tuple[int, ...]],
                                                List[int]]]) -> None:
        """Install precomputed cone interiors into the memo (first write wins).

        The parallel Phase-1 prefetch computes interiors for a drain's cuts
        across threads and lands them here serially; a subsequent
        :meth:`cone_interior` for the same key is then a plain memo hit.
        Entries are registered for per-root invalidation exactly like
        memo-miss computations, so the invalidation contract is unchanged.
        """
        self.bind(xag)
        interiors = self._interiors
        for key, interior in entries:
            if key in interiors:
                continue
            interiors[key] = interior
            self._register_key(key[0], key)

    def _register_key(self, root: int,
                      key: Tuple[int, Tuple[int, ...]]) -> None:
        """Record ``key`` for per-root invalidation (at most once per key)."""
        keys = self._root_keys.setdefault(root, [])
        if key not in keys:
            keys.append(key)

    # ------------------------------------------------------------------
    # implementation plans (network independent)
    # ------------------------------------------------------------------
    def plan_for(self, table: int, num_vars: int) -> ImplementationPlan:
        """Implementation plan for ``table``, memoised by exact function."""
        table &= table_mask(num_vars)
        key = (table, num_vars)
        plan = self._plans.get(key)
        if plan is not None:
            self.plan_hits += 1
            return plan
        self.plan_misses += 1
        plan = self.database.plan_for(table, num_vars)
        self._plans[key] = plan
        return plan

    def prefetch_plans(self, cones: Iterable[Tuple[int, Tuple[int, ...]]]) -> None:
        """Batch-classify the plan misses among memoised ``(root, leaves)`` cones.

        The rewriter calls this once per drain, between its batched cone
        simulation and its pricing sweep, with the cones in pricing order:
        the distinct functions that miss the plan memo are handed to one
        :meth:`ClassificationCache.prefetch`, so the sweep's plan lookups
        find their classifications ready and consume them all.  The lookups
        still count every plan and classification miss themselves.  Cones
        without a memoised table are skipped; their lookup classifies on
        its own.
        """
        if not self.database.use_classification:
            return
        keys = []
        for key in cones:
            table = self._functions.get(key)
            if table is not None and (table, len(key[1])) not in self._plans:
                keys.append((table, len(key[1])))
        self.database.classification_cache.prefetch(keys)

    # ------------------------------------------------------------------
    # persistence (warm-start bundles)
    # ------------------------------------------------------------------
    def plan_keys(self) -> List[Tuple[int, int]]:
        """Sorted ``(table, num_vars)`` keys of every memoised plan.

        These keys are what a warm-start bundle persists for this cache: the
        plans themselves are reconstructed on load from the database's
        recipes and classifications, so storing the keys is enough.
        """
        return sorted(self._plans)

    def warm_start(self, keys: Sequence[Sequence[int]]) -> int:
        """Pre-materialise plans for ``keys`` (from a bundle or another shard).

        Goes through :meth:`McDatabase.materialize_plan`, which serves
        restored classifications without counting them as hits — after a
        warm start the statistics still measure only the work of the current
        run.  Returns the number of plans installed.
        """
        installed = 0
        for table, num_vars in keys:
            key = (int(table), int(num_vars))
            if key in self._plans:
                continue
            self._plans[key] = self.database.materialize_plan(*key)
            installed += 1
        return installed

    def cone_entries(self) -> List[Tuple[str, int]]:
        """Sorted ``(cone hash hex, table)`` pairs of the content store.

        This is what a warm-start bundle persists for the content-addressed
        layer: hashes are canonical, so entries restored into any process
        serve structurally identical cones of any circuit.
        """
        return sorted((format(digest, "x"), table)
                      for digest, table in self._cone_tables.items())

    def warm_start_cones(self, entries: Sequence[Sequence]) -> int:
        """Restore content-addressed cone tables (from a bundle or shard).

        Counters are untouched — like :meth:`warm_start`, restoring another
        run's work must not masquerade as this run's hits.  Returns the
        number of entries installed.
        """
        installed = 0
        tables = self._cone_tables
        for digest_hex, table in entries:
            digest = int(digest_hex, 16)
            if digest in tables:
                continue
            tables[digest] = int(table)
            installed += 1
        return installed

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters for the engine report and the ablation benchmarks."""
        function_total = self.function_hits + self.function_misses
        plan_total = self.plan_hits + self.plan_misses
        return {
            "stored_functions": len(self._functions),
            "stored_cone_tables": len(self._cone_tables),
            "stored_plans": len(self._plans),
            "function_hits": self.function_hits,
            "function_misses": self.function_misses,
            "function_invalidations": self.function_invalidations,
            "cone_hash_hits": self.cone_hash_hits,
            "function_hit_rate": self.function_hits / function_total if function_total else 0.0,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_hit_rate": self.plan_hits / plan_total if plan_total else 0.0,
        }

    def clear(self) -> None:
        """Drop all memoised entries and counters (the database is untouched)."""
        self._functions.clear()
        self._interiors.clear()
        self._root_keys.clear()
        self._cone_hashes.clear()
        self._cone_tables.clear()
        self._plans.clear()
        if self._bound_xag is not None:
            self._bound_xag.unsubscribe(self)
        self._bound_xag = None
        self._bound_epoch = -1
        self._bound_mutation_epoch = -1
        self.function_hits = 0
        self.function_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.function_invalidations = 0
        self.cone_hash_hits = 0

    def __len__(self) -> int:
        return len(self._plans)


def _simulate_cone(xag: Xag, root: int, leaves: Tuple[int, ...],
                   interior: Sequence[int]) -> int:
    """Simulate a cut cone with projection truth tables."""
    num_vars = len(leaves)
    mask = table_mask(num_vars)
    values: Dict[int, int] = {0: 0}
    for position, leaf in enumerate(leaves):
        values[leaf] = projection(position, num_vars)
    for node in interior:
        f0, f1 = xag.fanins(node)
        a = values[lit_node(f0)]
        if f0 & 1:
            a ^= mask
        b = values[lit_node(f1)]
        if f1 & 1:
            b ^= mask
        values[node] = (a & b) if xag.is_and(node) else (a ^ b)
    return values[root]
