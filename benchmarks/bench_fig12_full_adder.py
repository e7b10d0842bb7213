"""Figure 1 / Figure 2 reproduction: the full adder drops from 3 AND gates to 1.

The paper uses the full adder as its running example: the cut rooted at the
carry output computes the majority function, whose affine class representative
is a single AND gate, so the whole adder can be rebuilt with multiplicative
complexity 1 (Example 3.1).
"""

import pytest

from repro.circuits.arithmetic import full_adder
from repro.rewriting import RewriteParams, RewritePass, run_pipeline
from repro.xag import equivalent


def run_full_adder_flow():
    fa = full_adder(style="naive")
    result = run_pipeline(fa, [RewritePass()],
                          params=RewriteParams(cut_size=3))
    return fa, result


def test_fig12_full_adder(benchmark):
    fa, result = benchmark.pedantic(run_full_adder_flow, rounds=3, iterations=1)
    assert fa.num_ands == 3                       # Fig. 1(a)
    assert result.final.num_ands == 1             # Fig. 2(c): MC <= 1
    assert equivalent(fa, result.final)
    print(f"\nfull adder: {fa.num_ands} AND -> {result.final.num_ands} AND "
          f"({result.final.num_xors} XOR), as in paper Fig. 2")
