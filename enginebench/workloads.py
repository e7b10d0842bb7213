"""The benchmark's workloads, as engine configurations built from a seed.

* ``md5-cold`` — the reduced md5 registry case at ``jobs=1`` with empty
  caches: the layers that fill the caches (classification, cut enumeration,
  cone hashing, synthesis) dominate.  Batched classification shows here.
* ``md5-warm`` — the same circuit and configuration started from a
  warm-start bundle built once per run (read-only: ``persist`` is unset, so
  the bundle never grows).  Classification and synthesis do no work, so cut
  enumeration, cone hashing and interiors dominate; it is the bypass
  workload for changes to ``repro.affine`` and ``repro.mc``.
* ``control-pool`` — the ten EPFL ``control`` circuits, cold, over the
  worker pool at ``jobs = nproc``.  The five synthetic ones are regenerated
  from the public generators with generator seed = default + ``--seed`` and
  handed to the engine as an external corpus; seed 0 reproduces the
  registry circuits exactly.  Exercises longest-first scheduling, delta
  streaming and cold work duplicated across workers.

All three use the ``mc`` cost model, convergence (``max_rounds=None``), the
resolved kernel backend and ``par_grain=1``.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # the engine is imported lazily, after set-up starts
    from repro.engine.core import EngineConfig
    from repro.xag.graph import Xag


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark (see the module docstring)."""

    name: str
    #: True for the pool workload: the engine runs at ``jobs = nproc`` and
    #: the cache-traffic counters depend on worker timing.
    pooled: bool = False
    #: True when timed runs start from a warm-start bundle.
    warm: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("md5-cold"),
        Workload("md5-warm", warm=True),
        Workload("control-pool", pooled=True),
    )
}

#: EPFL control circuits with a public specification (registry builders).
SPECIFIED_CONTROL = ("arbiter", "decoder", "int2float", "priority", "voter")


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _synthetic_generators() -> Dict[str, Tuple[Callable, Dict]]:
    """Registry name → (public generator, fixed keyword arguments).

    The keyword arguments pin the interface and gate budget of the
    registry's default-scale case; only the generator seed varies.
    """
    from repro.circuits import control as C
    return {
        "alu_ctrl": (C.alu_control_unit, {}),
        "cavlc": (C.cavlc_like, {}),
        "i2c": (C.i2c_like, {"scale": 2}),
        "mem_ctrl": (C.memory_controller_like, {"scale": 16}),
        "router": (C.router_like, {}),
    }


def synthetic_control(seed: int) -> Dict[str, "Xag"]:
    """The five synthetic control circuits for benchmark seed ``seed``.

    Each is built by its public generator with generator seed = the
    generator's default + ``seed`` and named ``<registry name>_s<seed>``.
    """
    circuits = {}
    for name, (generator, kwargs) in _synthetic_generators().items():
        default = inspect.signature(generator).parameters["seed"].default
        xag = generator(seed=default + seed, **kwargs)
        xag.name = f"{name}_s{seed}"
        circuits[xag.name] = xag
    return circuits


def write_control_corpus(seed: int, directory: Path) -> List[str]:
    """Serialise the synthetic control circuits into ``directory``.

    Returns the case names the engine will register for them.
    """
    from repro.xag import serialize
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for name, xag in synthetic_control(seed).items():
        serialize.save(xag, directory / f"{name}.json")
        names.append(name)
    return names


def engine_config(workload: Workload, seed: int, work_dir: Path, backend: str,
                  check: bool = False,
                  bundle: Optional[Path] = None) -> "EngineConfig":
    """The :class:`EngineConfig` of one run of ``workload``.

    ``check`` selects the output-check pass: always ``jobs=1`` and cold;
    for ``md5-warm`` it also persists the bundle the timed runs start from.
    """
    from repro.engine.core import EngineConfig
    common = dict(objective="mc", max_rounds=None, backend=backend,
                  par_grain=1)
    if workload.pooled:
        corpus = work_dir / f"control-corpus-s{seed}"
        synthetic = write_control_corpus(seed, corpus)
        circuits = sorted(SPECIFIED_CONTROL + tuple(synthetic))
        return EngineConfig(suites=("epfl",), corpus_dirs=(str(corpus),),
                            circuits=circuits,
                            jobs=1 if check else nproc(), **common)
    if workload.warm and check:
        return EngineConfig(suites=("crypto",), circuits=["md5"], jobs=1,
                            persist=bundle, **common)
    return EngineConfig(suites=("crypto",), circuits=["md5"], jobs=1,
                        warm_start=bundle if workload.warm else None, **common)
