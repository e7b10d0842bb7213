"""Ablations of the design choices called out in DESIGN.md / paper §4.1.

* cut size (4 / 5 / 6) and cut limit (4 / 8 / 12) — quality vs runtime;
* database tiers — what the exact Dickson tier contributes;
* classification and the classification cache — cost and hit rate;
* affine classification vs direct synthesis of the cut function.
"""

import pytest

from repro.affine import AffineClassifier
from repro.circuits.arithmetic import adder, comparator, multiplier
from repro.mc import McDatabase, McSynthesizer
from repro.rewriting import RewriteParams, RewritePass, run_pipeline
from repro.tt import random_table
import random


# ----------------------------------------------------------------------
# cut size (paper uses 6 — the largest size with known optimum circuits)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cut_size", [3, 4, 6])
def test_ablation_cut_size(cut_size, benchmark):
    add = adder(16)

    def run():
        return run_pipeline(add, [RewritePass(max_rounds=2)],
                            params=RewriteParams(cut_size=cut_size, cut_limit=8))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ncut_size={cut_size}: {add.num_ands} -> {result.final.num_ands} ANDs")
    assert result.final.num_ands <= add.num_ands
    if cut_size >= 4:
        # cuts of size >= 3 are enough to capture the full-adder carries
        assert result.final.num_ands <= 20


# ----------------------------------------------------------------------
# cut limit (paper uses 12 as the runtime/quality sweet spot)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cut_limit", [2, 6, 12])
def test_ablation_cut_limit(cut_limit, benchmark):
    unit = comparator(16, signed=False, strict=True)

    def run():
        return run_pipeline(unit, [RewritePass(max_rounds=2)],
                            params=RewriteParams(cut_size=5, cut_limit=cut_limit))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ncut_limit={cut_limit}: {unit.num_ands} -> {result.final.num_ands} ANDs")
    assert result.final.num_ands <= unit.num_ands


# ----------------------------------------------------------------------
# database tiers: the exact degree-2 tier is where the big wins come from
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_dickson", [True, False], ids=["dickson", "shannon_only"])
def test_ablation_database_tiers(use_dickson, benchmark):
    add = adder(12)
    database = McDatabase(synthesizer=McSynthesizer(use_dickson=use_dickson))

    def run():
        return run_pipeline(add, [RewritePass(max_rounds=2)],
                            database=database,
                            params=RewriteParams(cut_size=5, cut_limit=8))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ndickson={use_dickson}: {add.num_ands} -> {result.final.num_ands} ANDs")
    if use_dickson:
        assert result.final.num_ands == 12          # one AND per carry: optimal
    else:
        assert result.final.num_ands <= add.num_ands


# ----------------------------------------------------------------------
# affine classification vs synthesising every cut function directly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_classification", [True, False], ids=["classified", "direct"])
def test_ablation_classification(use_classification, benchmark):
    unit = multiplier(6)
    database = McDatabase(use_classification=use_classification)

    def run():
        return run_pipeline(unit, [RewritePass(max_rounds=1)],
                            database=database,
                            params=RewriteParams(cut_size=5, cut_limit=8))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = database.stats()
    print(f"\nclassification={use_classification}: {unit.num_ands} -> "
          f"{result.final.num_ands} ANDs, stored recipes: {stats['stored_recipes']}")
    assert result.final.num_ands <= unit.num_ands


# ----------------------------------------------------------------------
# classification runtime and cache effectiveness (paper §4.1)
# ----------------------------------------------------------------------
def test_classification_throughput(benchmark):
    classifier = AffineClassifier()
    rng = random.Random(0xDAC)
    tables = [random_table(6, rng) for _ in range(20)]

    def run():
        return [classifier.classify(table, 6).representative for table in tables]

    representatives = benchmark(run)
    assert len(representatives) == len(tables)


def test_classification_cache_hit_rate_on_structured_workload(benchmark):
    from repro.cuts.cache import CutFunctionCache

    add = adder(24)
    database = McDatabase()
    cut_cache = CutFunctionCache(database)

    def run():
        return run_pipeline(add, [RewritePass(max_rounds=1)],
                            cut_cache=cut_cache,
                            params=RewriteParams(cut_size=6, cut_limit=12))

    benchmark.pedantic(run, rounds=1, iterations=1)
    stats = cut_cache.stats()
    print(f"\nplan cache hit rate on adder_24: {stats['plan_hit_rate']:.2f} "
          f"({stats['plan_hits']:.0f} hits / {stats['plan_misses']:.0f} misses); "
          f"classification calls: {stats['plan_misses']:.0f} "
          f"(one per distinct cut function)")
    # structured arithmetic re-uses the same cut functions over and over; the
    # plan cache now fields those repeats before they reach classification
    # ("no Boolean function needs to be classified twice", paper §4.1)
    assert stats["plan_hit_rate"] > 0.5
