#!/usr/bin/env python3
"""Compose a custom optimisation pipeline from passes and flow scripts.

Every flow in the repository is a composition of passes over one shared
``OptimizationContext`` (see README, *Pipeline architecture*).  This example
builds the same custom flow twice — once from pass objects, once from the
flow-script string an engine user would pass as ``--flow`` — runs both on an
EPFL-style control circuit and shows they land on the same result, then
races the composition against the canonical flows.

Run::

    python examples/custom_flow.py [circuit]      # default: int2float
"""

import sys

from repro import RewriteParams, equivalent, multiplicative_depth, \
    parse_flow, run_pipeline, standard_flow
from repro.engine import EngineConfig
from repro.engine.core import select_cases
from repro.rewriting import BalancePass, DepthGuard, RewritePass

#: balance first (depth down, ANDs unchanged), chase the pure-MC AND count
#: under a depth guard, then collect level-vetoed leftovers one round at a
#: time.  Equivalent flow script: the SCRIPT constant below.
SCRIPT = "balance,guard(mc*),mc-depth*"


def build_passes():
    """The same pipeline as SCRIPT, composed from pass objects."""
    return [
        BalancePass(),
        DepthGuard(RewritePass("mc")),
        RewritePass("mc-depth", name="polish"),
    ]


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "int2float"
    case = select_cases(EngineConfig(suites=("epfl",), circuits=[name]))[0]
    xag = case.build()
    params = RewriteParams(objective="mc-depth")
    print(f"{name}: {xag.num_ands} AND, depth {multiplicative_depth(xag)}")

    composed = run_pipeline(xag, build_passes(), params=params)
    scripted = run_pipeline(xag, parse_flow(SCRIPT), params=params)
    pair = (composed.final.num_ands, composed.depth_after)
    assert pair == (scripted.final.num_ands, scripted.depth_after), \
        "pass objects and flow script must describe the same pipeline"
    assert equivalent(xag, composed.final)

    print(f"custom flow ({SCRIPT}):")
    for result in composed.walk():
        print(f"  {result.name:<12} ANDs {result.ands_before:>4} -> "
              f"{result.ands_after:>4}  depth {result.depth_before:>3} -> "
              f"{result.depth_after:>3}  rounds {len(result.rounds)} "
              f"({result.runtime_seconds:.2f}s)")
    print(f"  final: {pair[0]} AND, depth {pair[1]}, "
          f"verified {composed.verified}")

    mc = run_pipeline(xag, standard_flow("mc"))
    print(f"vs pure-MC convergence flow: {mc.final.num_ands} AND, "
          f"depth {multiplicative_depth(mc.final)}")


if __name__ == "__main__":
    main()
