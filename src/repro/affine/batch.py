"""Lockstep numpy kernels behind :meth:`AffineClassifier.classify_many`.

Importing this module requires numpy; :mod:`repro.affine.classify` only
imports it when the active kernel backend is accelerated.  Both kernels
return, for every table, exactly the :class:`Classification` of the
pure-Python reference (``_classify_spectral`` / ``_classify_exhaustive``):
every decision they take compares the same exact integers in the same
order, so representatives, op sequences, transforms and ``canonical``
flags are bit-identical.

* :func:`classify_spectral` runs the greedy spectral canonisation of a
  whole batch of one arity at once.  Each state is a row
  ``(perm, sign, linear_sign)`` over its function's Walsh spectrum (the
  signed-permutation view of :class:`repro.affine.classify._State`); a
  placement is one gather through a per-position table, a tie query one
  masked row maximum.  The winner of each function is replayed into its
  op list from the recorded per-position sources and input flips.
* :func:`classify_exhaustive` answers ``n <= 3`` from a lookup table over
  all ``2**(2**n)`` functions, built once per arity in the enumeration
  order of the reference loop, so the first argmin reproduces its strict
  ``<`` tie-break.

Lookup tables are built on the first batch of an arity, never at import.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro import gf2
from repro.affine.classify import (AffineClassifier, Classification,
                                   _matrix_to_ops, _placement_matrix_rows,
                                   _position_candidates)
from repro.affine.operations import AffineOp, AffineTransform

#: largest arity the spectral kernel serves: ``uint8`` permutations,
#: ``int16`` spectra and tables packed into one ``uint64``.
MAX_SPECTRAL_VARS = 6

#: largest arity served by the exhaustive lookup table (256 functions).
MAX_EXHAUSTIVE_VARS = 3

#: functions classified per lockstep pass; bounds the state arrays.
CHUNK = 128

#: arity → lookup tables; pure functions of the arity, shared process-wide
#: like the placement caches of :mod:`repro.affine.classify`.
_SPECTRAL_TABLES: Dict[int, "_SpectralTables"] = {}
_EXHAUSTIVE_TABLES: Dict[int, "_ExhaustiveTable"] = {}


def _parity(values: np.ndarray) -> np.ndarray:
    """Parity of every entry of a non-negative integer array (< 2**8)."""
    values = values.astype(np.uint8)
    values = values ^ (values >> 4)
    values = values ^ (values >> 2)
    return (values ^ (values >> 1)) & 1


def _fwht(values: np.ndarray) -> np.ndarray:
    """Row-wise Walsh-Hadamard transform (the reference butterfly order)."""
    rows, size = values.shape
    step = 1
    while step < size:
        blocks = values.reshape(rows, size // (2 * step), 2, step)
        low, high = blocks[:, :, 0, :], blocks[:, :, 1, :]
        values = np.stack((low + high, low - high), axis=2).reshape(rows, size)
        step <<= 1
    return values


def _table_bits(tables: Sequence[int], size: int) -> np.ndarray:
    """``(len(tables), size)`` 0/1 rows of truth tables of <= 64 rows."""
    words = np.array(tables, dtype=np.uint64)
    shifts = np.arange(size, dtype=np.uint64)
    return ((words[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_table_bits`: one ``uint64`` table per row."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((bits.shape[0], 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8").ravel()


class _SpectralTables:
    """Per-arity gathers of every placement the greedy can take."""

    def __init__(self, num_vars: int) -> None:
        size = 1 << num_vars
        self.num_vars = num_vars
        self.size = size
        words = np.arange(size)
        weights = (1 << np.arange(num_vars)).astype(np.uint8)
        #: position → its spectral candidates (the reference order).
        self.candidates = [np.array(_position_candidates(size, position))
                           for position in range(num_vars)]
        #: (position, source) of every candidate, position-major.
        self.placements = np.array([
            (position, source) for position in range(num_vars)
            for source in self.candidates[position]]).T
        #: [position, source] → index gather of ``x -> M x``: ``M^{-T} w``
        #: (the ``mperm`` of ``_placement_data``).
        self.perms = np.zeros((num_vars, size, size), dtype=np.uint8)
        #: [position, source, linear_sign] → ``M^{-1} linear_sign``.
        self.linear = np.zeros((num_vars, size, size), dtype=np.uint8)
        for position in range(num_vars):
            for source in _position_candidates(size, position):
                minv = gf2.inverse(
                    _placement_matrix_rows(source, position, num_vars))
                for table, rows in ((self.perms, gf2.transpose(minv)),
                                    (self.linear, minv)):
                    table[position, source] = weights @ _parity(
                        np.array(rows)[:, None] & words[None, :])
        #: [linear_sign, w] → ``(-1)^{<linear_sign, w>}``.
        self.signs = 1 - 2 * _parity(words[:, None] & words[None, :]
                                     ).astype(np.int16)


class _States:
    """Lockstep canonisation states, one row each."""

    def __init__(self, func: np.ndarray, perm: np.ndarray, sign: np.ndarray,
                 linear: np.ndarray, sources: np.ndarray,
                 flips: np.ndarray) -> None:
        self.func = func
        self.perm = perm
        self.sign = sign
        self.linear = linear
        self.sources = sources
        self.flips = flips

    @classmethod
    def initial(cls, func: np.ndarray, targets: np.ndarray,
                spectra: np.ndarray, num_vars: int) -> "_States":
        """States after step 1: ``f ^ <target, x>``, output sign fixed."""
        size = 1 << num_vars
        perm = (np.arange(size)[None, :] ^ targets[:, None]).astype(np.uint8)
        sign = np.where(spectra[func, targets] < 0, -1, 1).astype(np.int16)
        count = len(func)
        return cls(func, perm, sign, np.zeros(count, dtype=np.uint8),
                   np.zeros((count, num_vars), dtype=np.uint8),
                   np.zeros((count, num_vars), dtype=bool))

    @classmethod
    def concat(cls, parts: Sequence["_States"]) -> "_States":
        return cls(*(np.concatenate([getattr(part, name) for part in parts])
                     for name in ("func", "perm", "sign", "linear",
                                  "sources", "flips")))

    def take(self, rows: np.ndarray) -> "_States":
        return _States(self.func[rows], self.perm[rows], self.sign[rows],
                       self.linear[rows], self.sources[rows], self.flips[rows])


def _place(tables: _SpectralTables, spectra: np.ndarray, states: _States,
           rows: np.ndarray, positions, sources: np.ndarray) -> None:
    """``_place`` of the reference for ``states[rows]``: move ``sources``
    to ``e_positions``, then complement the input if its sign is negative."""
    perm = states.perm[rows]
    perm = perm[np.arange(len(rows))[:, None], tables.perms[positions, sources]]
    linear = tables.linear[positions, sources, states.linear[rows]]
    units = np.left_shift(1, positions)
    values = spectra[states.func[rows],
                     perm[np.arange(len(rows)), units]].astype(np.int32)
    negative = (values * states.sign[rows] < 0) ^ ((linear & units) != 0)
    negative &= values != 0
    states.perm[rows] = perm
    states.linear[rows] = linear ^ (negative * units).astype(np.uint8)
    states.sources[rows, positions] = sources
    states.flips[rows, positions] = negative


def _greedy_step(tables: _SpectralTables, spectra: np.ndarray,
                 magnitudes: np.ndarray, states: _States, rows: np.ndarray,
                 position: int) -> np.ndarray:
    """Place each row's first maximal candidate; return the tie mask."""
    candidates = tables.candidates[position]
    selected = magnitudes[states.func[rows][:, None],
                          states.perm[rows][:, candidates]]
    tied = selected == selected.max(axis=1)[:, None]
    _place(tables, spectra, states, rows, position,
           candidates[tied.argmax(axis=1)])
    return tied


def _tables_of(tables: _SpectralTables, spectra: np.ndarray,
               states: _States) -> np.ndarray:
    """Truth table of every state (one batched inverse transform)."""
    values = (spectra[states.func[:, None], states.perm]
              * states.sign[:, None] * tables.signs[states.linear])
    return _pack_rows((_fwht(values) < 0).astype(np.uint8))


def _group_ranks(groups: np.ndarray, count: int) -> np.ndarray:
    """Rank of each entry among the entries of its group (``groups`` sorted)."""
    starts = np.concatenate(([0], np.cumsum(np.bincount(groups,
                                                        minlength=count))))
    return np.arange(len(groups)) - starts[groups]


def classify_spectral(classifier: AffineClassifier, tables: Sequence[int],
                      num_vars: int) -> List[Classification]:
    """Spectral classifications of ``tables`` (1 <= ``num_vars`` <= 6)."""
    kernel = _SPECTRAL_TABLES.get(num_vars)
    if kernel is None:
        kernel = _SPECTRAL_TABLES[num_vars] = _SpectralTables(num_vars)
    results: List[Classification] = []
    for start in range(0, len(tables), CHUNK):
        results.extend(_spectral_chunk(classifier, kernel,
                                       tables[start:start + CHUNK]))
    return results


def _spectral_chunk(classifier: AffineClassifier, kernel: _SpectralTables,
                    tables: Sequence[int]) -> List[Classification]:
    num_vars, size = kernel.num_vars, kernel.size
    count = len(tables)
    functions = np.arange(count)
    spectra = _fwht(1 - 2 * _table_bits(tables, size).astype(np.int16))
    magnitudes = np.abs(spectra)
    zero = magnitudes == magnitudes.max(axis=1)[:, None]
    target_func, targets = np.nonzero(zero)
    target_rank = _group_ranks(target_func, count)

    # main pass of zero-target 0: pure greedy, recording before each
    # placement the state and the tie mask its branches start from.
    main = _States.initial(functions, targets[target_rank == 0], spectra,
                           num_vars)
    snapshots, ties = [], []
    for position in range(num_vars):
        snapshots.append(main.take(functions))
        ties.append(_greedy_step(kernel, spectra, magnitudes, main,
                                 functions, position))

    # branches: every tied alternative, position-major per function, cut
    # to the budget left after the main pass (``iteration_limit - 1``).
    for tied in ties:
        tied[functions, tied.argmax(axis=1)] = False
    branch_func, column = np.nonzero(np.concatenate(ties, axis=1))
    branch_rank = _group_ranks(branch_func, count)
    limit = max(classifier.iteration_limit - 1, 0)
    keep = branch_rank < limit
    branch_func, branch_rank = branch_func[keep], branch_rank[keep]
    branch_pos, branch_source = kernel.placements[:, column[keep]]
    budget = classifier.iteration_limit - 1 - np.bincount(branch_func,
                                                          minlength=count)

    # zero-targets 1..3 run while budget remains.
    extras = np.minimum(np.minimum(np.bincount(target_func, minlength=count)
                                   - 1, 3), np.maximum(budget, 0))
    budget -= extras
    extra = (target_rank >= 1) & (target_rank <= extras[target_func])
    extra_func, extra_rank = target_func[extra], target_rank[extra]

    # a branch resumes its main pass's state before its position
    branches = _States.concat(snapshots).take(branch_pos * count + branch_func)
    _place(kernel, spectra, branches, np.arange(len(branch_func)),
           branch_pos, branch_source)
    finishing = _States.concat([branches, _States.initial(
        extra_func, targets[extra], spectra, num_vars)])
    starts = np.concatenate((branch_pos + 1,
                             np.zeros(len(extra_func), dtype=np.intp)))
    for position in range(num_vars):
        rows = np.nonzero(starts <= position)[0]
        if len(rows):
            _greedy_step(kernel, spectra, magnitudes, finishing, rows,
                         position)

    # ``consider`` order: the branches, the main state, zero-targets 1..3;
    # the first minimal table of each function wins.
    states = _States.concat([finishing, main])
    consider = np.concatenate((branch_rank, limit + extra_rank,
                               np.full(count, limit)))
    candidates = _tables_of(kernel, spectra, states)
    ranked = np.lexsort((consider, candidates, states.func))
    first = ranked[np.r_[True, states.func[ranked][1:]
                         != states.func[ranked][:-1]]]
    zero_targets = np.concatenate((targets[target_rank == 0][branch_func],
                                   targets[extra],
                                   targets[target_rank == 0]))

    results = []
    for function, winner in zip(states.func[first].tolist(), first.tolist()):
        ops = _replay_ops(int(zero_targets[winner]),
                          bool(states.sign[winner] < 0),
                          states.sources[winner].tolist(),
                          states.flips[winner].tolist(), num_vars)
        forward = AffineTransform.identity(num_vars)
        for op in ops:
            forward.apply_op(op)
        results.append(Classification(
            table=tables[function],
            num_vars=num_vars,
            representative=int(candidates[winner]),
            from_representative=forward.inverse(),
            ops=ops,
            method="spectral",
            canonical=bool(budget[function] > 0),
        ))
    return results


def _replay_ops(target: int, flip_output: bool, sources: List[int],
                flips: List[bool], num_vars: int) -> List[AffineOp]:
    """The op list the reference state records along the same decisions."""
    ops = [AffineOp("xor_output", var) for var in range(num_vars)
           if (target >> var) & 1]
    if flip_output:
        ops.append(AffineOp("flip_output"))
    for position, (source, flip) in enumerate(zip(sources, flips)):
        ops.extend(_matrix_to_ops(
            _placement_matrix_rows(source, position, num_vars)))
        if flip:
            ops.append(AffineOp("flip_input", position))
    return ops


class _ExhaustiveTable:
    """Lexicographically smallest affine image of every ``n``-variable
    function, with the first ``(matrix, translation, linear, const)``
    choice (in the reference enumeration order) that reaches it."""

    def __init__(self, classifier: AffineClassifier, num_vars: int) -> None:
        size = 1 << num_vars
        mask = (1 << size) - 1
        self.size = size
        self.group = classifier._general_linear_group(num_vars)
        functions = np.arange(1 << size)
        bits = _table_bits(functions, size)
        words = np.arange(size)
        translated = words[:, None] ^ words[None, :]
        corrections = np.array([[table, table ^ mask] for table in
                                classifier._linear_output_tables(num_vars)],
                               dtype=np.uint8).ravel()
        self.representative = np.full(len(functions), 1 << size)
        self.choice = np.zeros(len(functions), dtype=np.intp)
        for index, matrix in enumerate(self.group):
            # row x of f(A(x ^ c)) reads row A(x ^ c) of f, for every c
            rows = np.array([gf2.mat_vec(matrix, word) for word in range(size)])
            images = (bits[:, rows[translated]]
                      << words.astype(np.uint8)).sum(axis=-1, dtype=np.uint8)
            candidates = (images[..., None] ^ corrections).reshape(
                len(functions), -1)
            local = candidates.argmin(axis=1)
            value = candidates[functions, local]
            # strictly smaller only: earlier matrices win ties
            better = value < self.representative
            self.representative[better] = value[better]
            self.choice[better] = index * candidates.shape[1] + local[better]

    def classification(self, table: int, num_vars: int) -> Classification:
        choice = int(self.choice[table])
        size = self.size
        matrix = self.group[choice // (2 * size * size)]
        translation = choice // (2 * size) % size
        linear, const = divmod(choice % (2 * size), 2)
        forward = AffineTransform(num_vars, list(matrix),
                                  gf2.mat_vec(matrix, translation),
                                  linear, const)
        return Classification(
            table=table,
            num_vars=num_vars,
            representative=int(self.representative[table]),
            from_representative=forward.inverse(),
            ops=forward.to_ops(),
            method="exhaustive",
            canonical=True,
        )


def classify_exhaustive(classifier: AffineClassifier, tables: Sequence[int],
                        num_vars: int) -> List[Classification]:
    """Exhaustive classifications of ``tables`` (``num_vars`` <= 3)."""
    lookup = _EXHAUSTIVE_TABLES.get(num_vars)
    if lookup is None:
        lookup = _EXHAUSTIVE_TABLES[num_vars] = _ExhaustiveTable(classifier,
                                                                 num_vars)
    return [lookup.classification(table, num_vars) for table in tables]
