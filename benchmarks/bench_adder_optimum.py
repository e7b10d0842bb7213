"""Paper §5.2 spot check: n-bit adders reach the known optimum of n AND gates.

Boyar–Peralta proved that n AND gates are necessary and sufficient for the
(n+1)-output addition of two n-bit numbers; the paper highlights that its flow
reaches exactly 32 / 64 ANDs on the 32- and 64-bit adders of Table 2.
"""

import pytest

from repro.circuits.arithmetic import adder
from repro.mc import McDatabase
from repro.rewriting import RewriteParams, RewritePass, run_pipeline
from repro.xag import equivalent


@pytest.mark.parametrize("width", [8, 16, 32])
def test_adder_reaches_optimum(width, benchmark, shared_database):
    add = adder(width)

    def run():
        return run_pipeline(add, [RewritePass()], database=shared_database,
                            params=RewriteParams(cut_size=6, cut_limit=12))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nadder_{width}: {add.num_ands} -> {result.final.num_ands} ANDs "
          f"(known optimum: {width})")
    assert result.final.num_ands == width
    assert equivalent(add, result.final)
