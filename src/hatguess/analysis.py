"""Exhaustive and sampled verification of strategy guarantees.

Sweeps walk every distribution of n hats (or a seeded sample of them),
score a strategy on each, and reduce to a worst-case report: the worst
shortfall below max{r, b} with a witness, and the histogram of correct
guesses, off which the minimum correct count, the number of distributions
and their exact total are read.

An exhaustive sweep of a rule that declares its ``parts`` (the contract
is on ``StrategyProfile``) runs over orbits, in one process.  Inside a
part, at a fixed value read of the red total R and a fixed red count of
its own, each cell's correct guesses depend only on the cell's type, so a
composition of cell types scores the sum of count * score, and the sweep
runs in stages:

* tables: each part's score per cell type, per red count and read value,
  read off one or two bulk calls that place compositions holding every
  type that red count allows; cells of one type must score alike, and a
  type met twice must match;
* checks: on seeded masks each part scores what its scores per type give,
  and the one player who may read R exactly, the odd-n spectator, is
  right in exactly one of their two colors at every R;
* combine: every other part enters as its arrangements per (red hats,
  correct); a min-plus DP over R gives the worst loss, products of
  polynomials the exact histogram, which the spectator multiplies by (1 + y);
* witness: the bit sweep's earliest worst distribution, found by fixing
  the players from the top, and re-scored through the bulk rule and per
  player;
* guards: the histogram holds 2^n distributions and n * 2^(n-1) correct
  guesses.

The bit sweep, one bulk call per distribution, serves every other rule
and is the reference the tests compare the orbit sweep against.  A sweep
whose estimated cost (distributions the bit sweep scores, or compositions
the orbit sweep walks per read value plus its histogram bytes) exceeds a
fixed budget raises ``CapacityError``.  The bit sweep and the sampler split
their work into chunks that merge associatively, so spreading them across
worker processes cannot change the result; the process pool is imported
only when one starts.

Alongside the sweeps sit the exact combinatorial checks: the averaging
identity (every no-peek strategy totals n * 2^(n-1) correct guesses over
all distributions), its binomial-sum form, the central-binomial floor
behind the impossibility bound, and a complete strategy-space search for
game sizes small enough to enumerate, which scores each profile through
the sweeps' reducer.

Exact integer arithmetic everywhere a claim is an identity; floating
point only for the transcendental bound formulas.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, product, zip_longest
from operator import mul, sub
from typing import Callable, Generator, Iterable, Iterator, NamedTuple

from .core import (
    CapacityError,
    ContractError,
    HatDistribution,
    Part,
    StrategyProfile,
    evaluate,
    full_mask,
)

EXACT_TOTAL_MAX_N = 14
SEARCH_MAX_N = 3
# identity and Robbins checks; a running binomial row: 7-11 ms at 4096, 24-27 ms at 8192 (2 vCPU)
IDENTITY_MAX_N = 4096

# An exhaustive sweep may cost this many units: one unit is a distribution the
# bit sweep scores, a composition per read value the orbit sweep walks, or a
# byte of its packed histogram state.  The bit sweep reaches it between
# n = 24 and n = 25.
_SWEEP_BUDGET = 3 << 23
_CELL_CHECKS = 32  # seeded masks on which every orbit sweep compares each part with its table
_INF = 1 << 62  # no distribution reaches this state

_SAMPLE_CHUNK = 1024  # fixed so reports do not depend on the worker count

# cell types by arity (single players, pairs) in ``_compositions`` order, named by each role's hat
_TYPES = {1: ("R", "B"), 2: ("RR", "RB", "BR", "BB")}


@dataclass(frozen=True)
class WorstCaseReport:
    """Outcome of evaluating one strategy over many distributions.

    A sweep keeps the worst loss, its witness and the histogram of correct
    guesses; the fewest correct guesses, the distributions evaluated and
    their total are read off the histogram.  A sampled sweep reports no
    total, since its samples are not the whole space.
    """

    strategy_name: str
    n: int
    mode: str  # "exhaustive" | "sampled"
    worst_loss: int
    witness: HatDistribution
    histogram: dict[int, int]

    @property
    def min_correct(self) -> int:
        return min(self.histogram)

    @property
    def evaluated(self) -> int:
        return sum(self.histogram.values())

    @property
    def total_correct(self) -> int | None:
        if self.mode == "sampled":
            return None
        return sum(c * k for c, k in self.histogram.items())

    def to_json_dict(self) -> dict:
        d = {
            "strategy": self.strategy_name,
            "n": self.n,
            "mode": self.mode,
            "evaluated": self.evaluated,
            "min_correct": self.min_correct,
            "worst_loss": self.worst_loss,
            "witness": self.witness.to_text(),
            "histogram": {str(c): k for c, k in sorted(self.histogram.items())},
        }
        if self.total_correct is not None:
            d["total_correct"] = self.total_correct
        return d

    def to_csv_rows(self) -> list[tuple]:
        rows: list[tuple] = [("correct_count", "omega_count")]
        rows.extend((c, k) for c, k in sorted(self.histogram.items()))
        return rows


class _Partial(NamedTuple):
    """Mergeable piece of a sweep; merge in index order."""

    worst_loss: int
    witness_red_mask: int
    histogram: list[int]  # histogram[c]: distributions with c correct guesses


def _merge_partials(first: _Partial, second: _Partial) -> _Partial:
    hist = [a + b for a, b in zip(first.histogram, second.histogram)]
    if second.worst_loss > first.worst_loss:  # ties keep the earlier witness
        return _Partial(second.worst_loss, second.witness_red_mask, hist)
    return _Partial(first.worst_loss, first.witness_red_mask, hist)


def _report(strategy: StrategyProfile, mode: str, part: _Partial) -> WorstCaseReport:
    witness = HatDistribution(strategy.n, part.witness_red_mask)
    hist = {c: k for c, k in enumerate(part.histogram) if k}
    return WorstCaseReport(strategy.name, strategy.n, mode, part.worst_loss, witness, hist)


def _scorer(strategy: StrategyProfile, n: int) -> Callable[[int], int]:
    """correct(red_mask): the correct guesses at a distribution, through the
    bulk rule where the strategy has one and per player otherwise."""
    bulk = strategy.bulk
    if bulk is None:
        return lambda red_mask: evaluate(strategy, HatDistribution(n, red_mask)).correct_count
    full = full_mask(n)
    return lambda red_mask: (~(bulk(red_mask) ^ red_mask) & full).bit_count()


def _reduce(correct: Callable[[int], int], n: int, red_masks: Iterable[int]) -> _Partial:
    """Score each distribution in ``red_masks`` with ``correct``; ties in worst
    loss keep the earliest."""
    hist = [0] * (n + 1)
    worst_loss, witness = -1, 0
    for red_mask in red_masks:
        cor = correct(red_mask)
        hist[cor] += 1
        r = red_mask.bit_count()
        loss = max(r, n - r) - cor
        if loss > worst_loss:
            worst_loss = loss
            witness = red_mask
    return _Partial(worst_loss, witness, hist)


def _sweep_chunk(payload: tuple[StrategyProfile, int, int, int]) -> _Partial:
    """Score every distribution with index in [lo, hi).

    Index bit i-1 set means player i wears blue, so the sweep starts from
    the all-red distribution.
    """
    strategy, n, lo, hi = payload
    return _reduce(_scorer(strategy, n), n, map(full_mask(n).__xor__, range(lo, hi)))


def _check_parts(strategy: StrategyProfile, n: int) -> tuple[Part, ...]:
    """Validate the rule's ``parts`` against the players: the cells partition
    1..n, a part's cells are all pairs or all single players, and a part that
    reads R exactly is one single player, of whom there is at most one."""
    parts = strategy.guess_rule.parts  # type: ignore[attr-defined]
    seen = bytearray(n + 1)
    covered = exact = 0
    for part in parts:
        if part.modulus < 0 or {len(cell) for cell in part.cells} not in ({1}, {2}):
            raise ContractError(
                f"{strategy.name}: a part needs a modulus >= 0 and cells that are "
                f"all pairs or all single players"
            )
        players = [p for cell in part.cells for p in cell]
        for p in players:
            if not 1 <= p <= n or seen[p]:
                raise ContractError(f"{strategy.name}: parts overlap or exceed n={n}")
            seen[p] = 1
        if part.modulus == 0 and len(players) != 1:
            raise ContractError(
                f"{strategy.name}: a part that reads R exactly must be one single player"
            )
        covered += len(players)
        exact += part.modulus == 0
    if covered != n:
        raise ContractError(f"{strategy.name}: parts must cover exactly the players 1..{n}")
    if exact > 1:
        raise ContractError(f"{strategy.name}: at most one part may read R exactly")
    return parts


def _orbit_cost(n: int, parts: tuple[Part, ...]) -> int:
    """The orbit sweep's estimated work: the compositions of cell types its
    rows and witness walk, per part and per value it reads (the exact
    reader reads n values of R), plus the bytes of its packed histogram
    state.  Its bulk calls, one or two per red count and read value of a
    part, are far fewer."""
    walks = 0
    for part in parts:
        kinds = 1 << len(part.cells[0])
        walks += math.comb(len(part.cells) + kinds - 1, kinds - 1) * (part.modulus or n)
    keys = math.lcm(*(part.modulus for part in parts if part.modulus))
    return walks + keys * (n + 1) ** 2 // 8


def _compositions(cells: int, kinds: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every tuple of ``kinds`` (2 or 4) counts that sum to ``cells``, each
    count from its largest down, the first count slowest, with its red
    hats: one per R cell, two per RR, one per RB or BR."""
    if kinds == 2:
        return (((a, cells - a), a) for a in range(cells, -1, -1))
    return (
        ((a, b, c, cells - a - b - c), 2 * a + b + c)
        for a in range(cells, -1, -1)
        for b in range(cells - a, -1, -1)
        for c in range(cells - a - b, -1, -1)
    )


def _covers(cells: int, arity: int, c: int) -> list[tuple[int, ...]]:
    """Compositions with c red hats that between them hold every cell type
    that some composition with c red hats holds.  Single players: the only
    one.  Pairs: one holds all four types when 4 <= c <= 2 * cells - 4;
    otherwise an even c puts RR and BB in one and RB and BR in the other,
    and an odd c has one mixed cell, RB in one and BR in the other."""
    if arity == 1:
        return [(c, cells - c)]
    half, odd = divmod(c, 2)
    if 4 <= c <= 2 * cells - 4:
        return [(half - 1, 1 + odd, 1, cells - half - 1 - odd)]
    if odd:
        return [(half, 1, 0, cells - half - 1), (half, 0, 1, cells - half - 1)]
    if 0 < c < 2 * cells:
        return [(half, 0, 0, cells - half), (half - 1, 1, 1, cells - half - 1)]
    return [(half, 0, 0, cells - half)]


def _placements(part: Part) -> list[tuple[int, int, list[tuple[int, list[int], bool]]]]:
    """(red hats c, red mask, types) of each of the part's covers
    (``_covers``), c ascending, its cells taking their types in order.
    ``types`` holds, for each type the cover holds, (type, the mask of its
    cells' players in each role: the first player of a pair, then the
    second; whether a cover before it with c red hats holds the type too)."""
    arity = len(part.cells[0])
    roles = [[0] for _ in range(arity)]  # roles[b][j]: the players of role b in the first j cells
    for cell in part.cells:
        for role, p in zip(roles, cell):
            role.append(role[-1] | 1 << (p - 1))
    placed = []
    for c in range(arity * len(part.cells) + 1):
        held = set()
        for comp in _covers(len(part.cells), arity, c):
            red, types, start = 0, [], 0
            for kind, count in enumerate(comp):
                if count:
                    end = start + count
                    players = [role[end] ^ role[start] for role in roles]
                    for members, hat in zip(players, _TYPES[arity][kind]):
                        if hat == "R":
                            red |= members
                    types.append((kind, players, kind in held))
                    held.add(kind)
                    start = end
            placed.append((c, red, types))
    return placed


class _PartTable(NamedTuple):
    """One part's correct guesses per cell of each type, per value v of the
    red total R it reads and per red count c of its own:
    ``scores[v][c][kind]``, the types in ``_compositions`` order (R, B or
    RR, RB, BR, BB).  v = R mod len(scores), which is R mod k for a part
    with modulus k >= 1 and R itself for the exact reader.  scores[v][c] is
    None where no distribution has that v and c, and a type that no
    composition with c red hats holds scores 0.  A composition scores the
    sum of count * score over its types.  Every score is read off a real
    bulk call (``_part_tables``)."""

    part: Part
    mask: int
    scores: list[list[list[int] | None]]


def _part_tables(
    strategy: StrategyProfile, r_mask: int, parts: tuple[Part, ...]
) -> list[_PartTable]:
    """Every part's scores per cell type, read off real bulk calls.

    At each value v a part reads and each red count c of its own, a call
    places each of the part's covers (``_placements``), and each type it
    holds is scored role by role: all its cells right in a role, or none.
    Parts that read nothing share calls: call i places each one's i-th
    cover.  A part that reads R, mod k or exactly, goes alone, with the
    lowest players outside it that R counts red as often as v needs.  Every
    cell of one type must score alike, and a type that two covers hold must
    score the same in both, or the parts declaration does not hold.
    """
    bulk = strategy.bulk

    def read(part: Part, scores: list[int], v: int, c: int, right: int, types: list) -> None:
        for kind, players, again in types:
            score = 0
            for members in players:  # every cell of the type right in this role, or none
                got = right & members
                if got and got != members:
                    score = None
                    break
                score += got == members
            if score is None or again and scores[kind] != score:
                raise ContractError(
                    f"{strategy.name}: the {_TYPES[len(part.cells[0])][kind]} cells of the part "
                    f"{part.cells} score differently at {c} red hats and read value {v}; a cell's "
                    f"correct guesses must depend only on its type there, so the rule's parts "
                    f"declaration does not hold"
                )
            scores[kind] = score

    tables, shared = [], []
    for part in parts:
        arity, k = len(part.cells[0]), part.modulus
        mask = part.mask
        rest = r_mask & ~mask
        reads = k or rest.bit_count() + 1
        outs = [0]  # outs[t]: the lowest t players outside the part that R counts
        for _ in range(min(reads - 1, rest.bit_count())):
            outs.append(outs[-1] | rest & -rest)
            rest &= rest - 1
        # scores[v][c][kind], None where the red hats outside, (v - c) mod k or v, are
        # more than the players outside that R counts
        scores = [
            [
                [0] * (1 << arity) if ((v - c) % k if k else v) < len(outs) else None
                for c in range(arity * len(part.cells) + 1)
            ]
            for v in range(reads)
        ]
        placed = _placements(part)
        if k == 1:
            shared.append((part, scores[0], placed))
        else:
            for v, row in enumerate(scores):
                for c, red, types in placed:
                    if row[c] is not None:
                        both = red | outs[(v - c) % k if k else v]
                        read(part, row[c], v, c, ~(bulk(both) ^ both), types)
        tables.append(_PartTable(part, mask, scores))
    for calls in zip_longest(*(placed for _, _, placed in shared)):
        red = sum(call[1] for call in calls if call)
        right = ~(bulk(red) ^ red)
        for (part, row, _), call in zip(shared, calls):
            if call:
                c, _, types = call
                read(part, row[c], 0, c, right, types)
    return tables


def _check_cells(strategy: StrategyProfile, n: int, r_mask: int, tables: list[_PartTable]) -> None:
    """The parts promise on ``_CELL_CHECKS`` seeded masks, one bulk call each:
    every part must score what its scores per cell type give for the mask's
    composition of cell types, its red count and the value it reads of R,
    the sum of count * score, all the sweep takes from a part.  A part of
    pairs reads its composition off popcounts over its pairs grouped by
    partner distance d = y - x, the way the block rule plays them."""
    readers = []
    for t in tables:
        groups: dict[int, tuple[int, int]] = {}
        for cell in t.part.cells:
            if len(cell) == 2:
                x, y = cell
                xs, ys = groups.get(y - x, (0, 0))
                groups[y - x] = (xs | 1 << (x - 1), ys | 1 << (y - 1))
        firsts = sum(xs for xs, _ in groups.values())
        readers.append((t, len(t.part.cells), tuple(groups.items()), firsts))
    rng = random.Random(n)
    for i in range(_CELL_CHECKS):
        mask = rng.getrandbits(n)
        for _ in range(i % 3):  # vary the density of red hats
            mask = mask & rng.getrandbits(n) if i & 1 else mask | rng.getrandbits(n)
        right = ~(strategy.bulk(mask) ^ mask)
        r = (mask & r_mask).bit_count()
        for t, cells, groups, firsts in readers:
            reds = (mask & t.mask).bit_count()
            if groups:  # RR, RB, BR, BB
                both = sum(
                    (mask & (mask >> d if d > 0 else mask << -d) & xs).bit_count()
                    for d, (xs, _) in groups
                )
                x_red = (mask & firsts).bit_count()
                comp = [both, x_red - both, reds - x_red - both, cells - reds + both]
            else:
                comp = [reds, cells - reds]
            got = (right & t.mask).bit_count()
            want = sum(map(mul, comp, t.scores[r % len(t.scores)][reds]))
            if got != want:
                raise ContractError(
                    f"{strategy.name}: the part {t.part.cells} has {got} correct guesses, and "
                    f"its scores per cell type give {want}; its guesses depend on more than "
                    f"its cells' types, its red count and what it reads of R, so the rule's "
                    f"parts declaration does not hold"
                )


def _min_plus(old: list[int], best: list[int]) -> list[int]:
    """new[s + c] = min over c of old[s] + best[c]."""
    size = len(old)
    new = [_INF] * size
    for c, b in enumerate(best):
        if b < _INF and c < size:
            new[c:] = map(min, new[c:], [v + b for v in old[: size - c]])
    return new


def _row(table: _PartTable) -> list[dict[tuple[int, int], int]]:
    """How a part that reads R mod k enters ``_combine``: for each read value
    v, (red hats c, correct k) -> the arrangements of its cells that have
    them, the multinomial cells! / prod(count!) summed over the compositions,
    each scoring the sum of count * score over its cell types."""
    cells = len(table.part.cells)
    fact = list(accumulate(range(1, cells + 1), mul, initial=1))  # fact[i] = i!
    row: list[dict[tuple[int, int], int]] = [{} for _ in table.scores]
    for comp, c in _compositions(cells, 1 << len(table.part.cells[0])):
        weight = fact[cells] // math.prod(map(fact.__getitem__, comp))
        for counts, scores in zip(row, table.scores):
            if scores[c] is not None:
                k = sum(map(mul, comp, scores[c]))
                counts[c, k] = counts.get((c, k), 0) + weight
    return row


def _combine(
    rows: list[list[dict[tuple[int, int], int]]], exact: _PartTable | None, n: int
) -> tuple[list[int], list[list[list[int]]], list[int]]:
    """(losses, chains, histogram) of the parts with ``rows``, and the exact
    reader if any, combined once per residue rho of the red total R mod K, K
    the lcm of their moduli, each part at its read value v = rho mod k:

    * worst loss: a min-plus DP over R whose step is ``best``, the fewest
      correct guesses k per red hats c of row[v]; chains[rho][j] holds the
      fewest correct guesses of rows[j:] per R, which the witness walks,
      and losses[rho] the worst loss whose R has residue rho;
    * histogram: polynomials in x (R mod K) whose coefficients are
      polynomials in y (correct guesses) packed into one int each, row[v]
      being the sum of its arrangements times x^c y^k; x^rho is read off.

    The exact reader joins last, where R is known (``_reader``).  No part
    reads its hat and it is right in exactly one of its two colors (which
    ``_orbit_sweep`` checks), so it multiplies the histogram by (1 + y).
    """
    size = n + 1 - (exact is not None)  # R counts every player but the exact reader
    big_k = math.lcm(*map(len, rows))
    slot = n // 8 + 1  # bytes per packed coefficient: every count is at most 2^n
    hist = [0] * (n + 1)
    losses, chains = [], []
    for rho in range(big_k):
        chain = [[0] + [_INF] * (size - 1)]
        acc = [1] + [0] * (big_k - 1)
        for row in reversed(rows):
            counts = row[rho % len(row)]
            best = [_INF] * size
            for c, k in counts:
                best[c] = min(best[c], k)
            chain.append(_min_plus(chain[-1], best))
            terms = [(c % big_k, 8 * slot * k, weight) for (c, k), weight in counts.items()]
            new = [0] * big_k
            for j, a in enumerate(acc):
                if a:
                    for dj, shift, weight in terms:
                        new[(j + dj) % big_k] += a * weight << shift
            acc = new
        chains.append(chain[::-1])
        fewest = chain[-1]
        reader = _reader(exact, rho, big_k, n, size)
        losses.append(max((-k - fewest[r] for _, r, k in reader if fewest[r] < _INF), default=-1))
        _add_slots(hist, acc[rho], slot)
    if exact is not None:
        hist = [a + b for a, b in zip(hist, [0] + hist)]  # times (1 + y)
    return losses, chains, hist


def _orbit_sweep(strategy: StrategyProfile, n: int, parts: tuple[Part, ...]) -> _Partial:
    """The exhaustive sweep of a rule with ``parts``, over orbits, in stages:

    1. tables: each part's scores per cell type, per red count and read
       value, read off one or two bulk calls each (``_part_tables``);
    2. checks: each part on seeded masks (``_check_cells``), and the exact
       reader right in exactly one of its two colors at every R;
    3. ``_combine`` of every other part's ``_row``;
    4. witness: the bit sweep's, the smallest index among the worst cases,
       one ``_witness`` search per residue that reaches the worst loss, run
       in lockstep (``_earliest``), re-scored through the bulk rule and per
       player;
    5. guards: the histogram holds 2^n distributions and n * 2^(n-1)
       correct guesses.
    """
    full = full_mask(n)
    r_mask = full ^ sum(part.mask for part in parts if not part.modulus)
    bulk = strategy.bulk
    tables = _part_tables(strategy, r_mask, parts)
    _check_cells(strategy, n, r_mask, tables)
    exact = next((t for t in tables if t.part.modulus == 0), None)
    # scores[R][1][0]: right in red (type R, 1 red hat); scores[R][0][1]: right in blue
    if exact is not None and any(row[1][0] + row[0][1] != 1 for row in exact.scores):
        raise ContractError(
            f"{strategy.name}: player {exact.mask.bit_length()} reads R exactly but is not "
            f"right in exactly one of their two colors for every R; their guess depends "
            f"on their own hat"
        )
    others = sorted((t for t in tables if t is not exact), key=lambda t: t.mask, reverse=True)
    losses, chains, hist = _combine([_row(t) for t in others], exact, n)
    worst = max(losses)
    red, cor = _earliest(
        [_witness(others, chains[rho], rho, len(chains), n, worst, exact)
         for rho, loss in enumerate(losses) if loss == worst]
    )
    r = red.bit_count()
    got = (~(bulk(red) ^ red) & full).bit_count()
    per_player = evaluate(strategy, HatDistribution(n, red)).correct_count
    if max(r, n - r) - cor != worst or got != cor or per_player != cor:
        raise ContractError(
            f"{strategy.name}: the orbit sweep found worst loss {worst} at "
            f"{HatDistribution(n, red).to_text()} with {cor} correct, where the bulk rule "
            f"scores {got} and the per-player rule {per_player}; the rule's parts "
            f"declaration does not hold"
        )
    evaluated, total = sum(hist), sum(c * k for c, k in enumerate(hist))
    if evaluated != 1 << n or total != n << (n - 1):
        raise ContractError(
            f"{strategy.name}: the orbit sweep counted {evaluated} distributions and "
            f"{total} correct guesses, not 2^{n} and {n} * 2^{n - 1}; the rule's "
            f"parts declaration does not hold"
        )
    return _Partial(worst, red, hist)


def _add_slots(hist: list[int], packed: int, size: int) -> None:
    """Add the coefficients of ``packed``, ``size`` bytes each from the
    lowest, to hist[0], hist[1], ..."""
    data = packed.to_bytes(-(-packed.bit_length() // 8), "little")
    for at in range(0, len(data), size):
        hist[at // size] += int.from_bytes(data[at : at + size], "little")


def _subset_sums(comp: tuple[int, ...]) -> tuple[int, ...]:
    """sums[T]: the cells of composition ``comp`` whose type lies in the set T
    (bit kind set)."""
    sums = [0]
    for count in comp:
        sums += [s + count for s in sums]
    return tuple(sums)


def _reader(
    exact: _PartTable | None, rho: int, big_k: int, n: int, size: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """The options (subset sums, R, k) of the part that reads R exactly, at
    every R with residue rho, where k is its correct guesses less the target
    max{r, b}: a distribution's loss is minus the sum of every part's k.
    With no exact reader, one option per R, with no cells."""
    if exact is None:
        return [((0,), r, -max(r, n - r)) for r in range(rho, size, big_k)]
    colors = [(_subset_sums(comp), comp, c) for comp, c in _compositions(1, 2)]
    return [
        (sums, r, sum(map(mul, comp, exact.scores[r][c])) - max(r + c, n - r - c))
        for r in range(rho, size, big_k)
        for sums, comp, c in colors
    ]


def _earliest(searches: list[Generator[bool, None, tuple[int, int]]]) -> tuple[int, int]:
    """The bit sweep's witness among the residues that reach the worst loss:
    the searches fix player n, n - 1, ... in lockstep, and a search that
    puts blue where another puts red is dropped, since its distribution has
    the larger index.  Two residues never agree on every hat, so one search
    runs to the end and returns (red mask, correct)."""
    while True:
        try:
            reds = [next(search) for search in searches]
        except StopIteration as done:
            return done.value
        if any(reds):
            searches = [search for search, red in zip(searches, reds) if red]


def _witness(others, chain, rho, big_k, n, worst, exact) -> Generator[bool, None, tuple[int, int]]:
    """The earliest worst case whose R has residue rho.

    The players are fixed from n down to 1, each red if some worst case
    still extends the hats fixed so far; each choice is yielded (red is
    True) and the search returns (red mask, correct).  Each part keeps its
    options (subset sums of its composition, red hats c, correct k) that fit
    its fixed hats; the last part is the reader of R (``_reader``), with R in
    place of c.  The parts ``others[touched:]`` have no hat fixed and count
    through ``chain[touched]``.  An option is kept while k is at most
    room[c]: the most correct guesses the part may have with c red hats
    while everything else can still reach ``worst``, recomputed only when
    another part's options change.  A composition fits the fixed hats when
    Hall's condition holds: for every set T of cell types, the cells that
    can only take types in T are at most the composition's cells in T.
    """
    size = len(chain[0])
    options = [None] * len(others) + [_reader(exact, rho, big_k, n, size)]
    place = {}  # player -> (part, cell, the cell's types in which the player wears red)
    sets = []  # sets[j][e]: the types (bit kind set) cell e of part j can still take
    counts = []  # counts[j][types]: the cells of part j that can take exactly the types ``types``
    for j, t in enumerate(others + [exact] if exact else others):
        arity = len(t.part.cells[0])
        sets.append([(1 << (1 << arity)) - 1] * len(t.part.cells))
        counts.append({(1 << (1 << arity)) - 1: len(t.part.cells)})
        # red_in[b]: the types whose kind bit b is clear (bit set = blue, the
        # first player of a cell in the highest bit), where that player wears red
        kinds = range(1 << arity)
        red_in = [sum(1 << kind for kind in kinds if not kind >> b & 1) for b in range(arity)]
        for e, cell in enumerate(t.part.cells):
            for b, p in enumerate(reversed(cell)):
                place[p] = j, e, red_in[b]

    def room(j: int) -> list[int]:
        fewest, reds, cor = chain[touched], 0, 0  # every part but j and the reader
        for i, opts in enumerate(options[:touched]):
            if i == j:
                continue
            if len(opts) == 1:
                reds, cor = reds + opts[0][1], cor + opts[0][2]
                continue
            best = [_INF] * (others[i].mask.bit_count() + 1)
            for _, c, k in opts:
                best[c] = min(best[c], k)
            fewest = _min_plus(fewest, best)
        if j == len(others):  # the reader, by R: near -_INF where R is unreachable
            return [-fewest[r - reds] - cor - worst if r >= reds else -_INF for r in range(size)]
        most = [-_INF] * size  # the reader's most -k at each R
        for _, r, k in options[-1]:
            most[r] = max(most[r], -k)
        return [
            max(map(sub, most[c + reds :], fewest), default=-_INF) - cor - worst
            for c in range(others[j].mask.bit_count() + 1)
        ]

    def narrow(fits: list, have: dict[int, int], old: int, new: int) -> list:
        """The options in ``fits`` that still fit once a cell narrows from
        ``old`` to ``new`` (``have``: the counts after).  Only the sets T that
        contain ``new`` but not ``old`` gain a cell, and of those only the
        unions of overlapping type sets matter."""
        unions, todo = set(), [new]
        while todo:
            types = todo.pop()
            if types not in unions and old & ~types:
                unions.add(types)
                todo += [types | s for s, m in have.items() if m and s & types]
        for types in unions:
            within = sum(m for s, m in have.items() if s & ~types == 0)
            fits = [o for o in fits if o[0][types] >= within]
        return fits

    red = touched = 0
    rooms = {}
    for p in range(n, 0, -1):
        j, e, red_types = place[p]
        if j not in rooms:
            if j == touched < len(others):  # p is the top of others[j], not the reader
                touched += 1
            bound = rooms[j] = room(j)
            if options[j] is None:
                t = others[j]
                scores = t.scores[rho % len(t.scores)]
                options[j] = [
                    (_subset_sums(comp), c, k)
                    for comp, c in _compositions(len(t.part.cells), 1 << len(t.part.cells[0]))
                    if scores[c] is not None and (k := sum(map(mul, comp, scores[c]))) <= bound[c]
                ]
            else:
                options[j] = [o for o in options[j] if o[2] <= bound[o[1]]]
        old = sets[j][e]
        have = counts[j]
        have[old] -= 1
        sets[j][e] = new = old & red_types
        have[new] = have.get(new, 0) + 1
        kept = narrow(options[j], have, old, new)
        if not kept:  # every option fits the other color: each fits the cell's old types
            have[new] -= 1
            sets[j][e] = new = old & ~red_types
            have[new] = have.get(new, 0) + 1
        elif len(kept) < len(options[j]):
            rooms = {j: rooms[j]}
            options[j] = kept
        red |= bool(kept) << (p - 1)
        yield bool(kept)
    r = sum(opts[0][1] for opts in options[:-1])
    k = sum(opts[0][2] for opts in options[:-1]) + next(k for _, at, k in options[-1] if at == r)
    total = red.bit_count()
    return red, max(total, n - total) + k


def _ranges(count: int, workers: int) -> list[tuple[int, int]]:
    """Split [0, count) into about 4 chunks per worker, each at least 1024 long."""
    step = max(1024, -(-count // (4 * workers))) if workers > 1 else count
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _check_workers(workers: int) -> None:
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ContractError(f"need at least one worker, as an integer, got {workers!r}")


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes to start: never more than the chunks or the CPUs."""
    return min(workers, chunks, os.cpu_count() or 1)


def _mp_context():
    """Fork where the platform has it, so workers inherit the loaded modules;
    spawn elsewhere."""
    from multiprocessing import get_context

    try:
        return get_context("fork")
    except ValueError:
        return get_context("spawn")


def _run_chunks(payloads: list[tuple], worker, workers: int) -> _Partial:
    pool_size = _pool_size(workers, len(payloads))
    if pool_size == 1:
        return reduce(_merge_partials, map(worker, payloads))
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    try:
        pickle.dumps(payloads[0][0])
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ContractError(
            f"{payloads[0][0].name} cannot be sent to {pool_size} worker processes "
            f"({exc}); run it with workers=1"
        ) from None
    with ProcessPoolExecutor(max_workers=pool_size, mp_context=_mp_context()) as pool:
        return reduce(_merge_partials, pool.map(worker, payloads))


def exhaustive_worst_case(
    strategy: StrategyProfile, n: int, workers: int = 1
) -> WorstCaseReport:
    """Evaluate ``strategy`` on every one of the 2^n distributions.

    A rule that declares ``parts`` is swept over orbits, in one process;
    any other rule by the bit sweep, one bulk call per distribution.  Either
    way a sweep whose estimated cost exceeds the budget raises
    ``CapacityError``.
    """
    if strategy.n != n:
        raise ContractError(f"strategy is for n={strategy.n}, asked to sweep n={n}")
    _check_workers(workers)
    orbits = strategy.bulk is not None and getattr(strategy.guess_rule, "parts", None) is not None
    if orbits:
        parts = _check_parts(strategy, n)
        cost = _orbit_cost(n, parts)
    else:
        cost = (1 << n) + (n + 1) ** 2 // 8
    if cost > _SWEEP_BUDGET:
        raise CapacityError(
            f"an exhaustive sweep of {strategy.name} at n={n} would cost about {cost:.3g} "
            f"units (distributions scored, or compositions walked per read value and "
            f"histogram bytes), over the budget of {_SWEEP_BUDGET}; "
            f"use monte_carlo for sampled checks"
        )
    if orbits:
        part = _orbit_sweep(strategy, n, parts)
    else:
        payloads = [(strategy, n, lo, hi) for lo, hi in _ranges(1 << n, workers)]
        part = _run_chunks(payloads, _sweep_chunk, workers)
    return _report(strategy, "exhaustive", part)


def total_correct_over_omega(strategy: StrategyProfile, n: int) -> int:
    """Sum of correct guesses over all 2^n distributions, exactly.

    Computed through the per-player view path (not the bulk fast path) so
    it stays an independent check on the sweeps.  Equals n * 2^(n-1) for
    every strategy that never peeks: flipping a player's own hat toggles
    that player's correctness, pairing up the distribution space.
    """
    if strategy.n != n:
        raise ContractError(f"strategy is for n={strategy.n}, asked about n={n}")
    if n > EXACT_TOTAL_MAX_N:
        raise CapacityError(
            f"exact total over 2^{n} distributions via the per-player path "
            f"is capped at n <= {EXACT_TOTAL_MAX_N}"
        )
    total = 0
    for red_mask in range(1 << n):
        total += evaluate(strategy, HatDistribution(n, red_mask)).correct_count
    return total


class IdentityResult(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


def _binomial_row(n: int) -> Iterator[int]:
    """C(n, 0), ..., C(n, n), each carried from the last by one multiply and
    one exact divide: C(n, i+1) = C(n, i) * (n - i) / (i + 1)."""
    c = 1
    yield c
    for i in range(n):
        c = c * (n - i) // (i + 1)
        yield c


def identity_check(n: int) -> IdentityResult:
    """Exact check of sum over i != n/2 of C(n,i) * max{i, n-i} = 2^n * n/2.

    The left side is what the majority strategy totals over all
    distributions (it scores max{i, n-i} off balance and 0 at i = n/2);
    the right side is the strategy-independent total.
    """
    if n < 2 or n % 2:
        raise ContractError(f"identity needs a positive even n, got {n}")
    if n > IDENTITY_MAX_N:
        raise CapacityError(f"the identity check is capped at n <= {IDENTITY_MAX_N}, got {n}")
    lhs = sum(c * max(i, n - i) for i, c in enumerate(_binomial_row(n)) if i != n // 2)
    rhs = (1 << n) * n // 2
    return IdentityResult(lhs, rhs, lhs == rhs)


def lower_bound_loss(n: int) -> float:
    """sqrt(n/(2*pi)) * exp(-1/(3n)) - 1: the loss below max{r,b} that no
    strategy can avoid on every distribution.  Negative (vacuous) for
    small n; reported as-is."""
    if n < 1:
        raise ContractError(f"need n >= 1, got {n}")
    return math.sqrt(n / (2 * math.pi)) * math.exp(-1 / (3 * n)) - 1


def robbins_check(n: int) -> bool:
    """Exact C(n, n/2) against the floor 2^n * sqrt(2/(pi*n)) * exp(-1/(3n)).

    The exact central binomial is a big integer; only the floor's factor
    after 2^n is floating point, and it is scaled by 2^n as an exact
    fraction, since 2^n overflows a float from n = 1024 on.
    """
    if n < 2 or n % 2:
        raise ContractError(f"need a positive even n, got {n}")
    if n > IDENTITY_MAX_N:
        raise CapacityError(f"the Robbins check is capped at n <= {IDENTITY_MAX_N}, got {n}")
    factor = math.sqrt(2 / (math.pi * n)) * math.exp(-1 / (3 * n))
    return math.comb(n, n // 2) >= (1 << n) * Fraction(factor)


@dataclass(frozen=True)
class OptimalReport:
    """Optima over the complete strategy space of a tiny game."""

    n: int
    best_min_correct: int
    best_worst_loss: int
    strategies_enumerated: int


def _view_key(red_mask: int, player_pos: int) -> int:
    """Pack the other players' bits into a dense key (lower players first)."""
    low = red_mask & ((1 << player_pos) - 1)
    high = (red_mask >> (player_pos + 1)) << player_pos
    return low | high


def search_optimal(n: int) -> OptimalReport:
    """Enumerate every strategy profile and return both worst-case optima.

    Each player's rule is a truth table over their 2^(n-1) possible views,
    so the space holds (2^(2^(n-1)))^n profiles and no-peek holds by
    construction.  Feasible only for n <= 3.
    """
    if n < 1:
        raise ContractError(f"need n >= 1, got {n}")
    if n > SEARCH_MAX_N:
        raise CapacityError(
            f"strategy space has (2^(2^{n - 1}))^{n} profiles; capped at n <= {SEARCH_MAX_N}"
        )
    views = 1 << (n - 1)
    best_min, best_loss = -1, n + 1
    for enumerated, tables in enumerate(product(range(1 << views), repeat=n), 1):
        def correct(red_mask: int) -> int:
            return sum(
                tables[pos] >> _view_key(red_mask, pos) & 1 == red_mask >> pos & 1
                for pos in range(n)
            )

        part = _reduce(correct, n, range(1 << n))
        best_min = max(best_min, next(c for c, k in enumerate(part.histogram) if k))
        best_loss = min(best_loss, part.worst_loss)
    return OptimalReport(n, best_min, best_loss, enumerated)


def _child_seed(seed: int, chunk_index: int) -> int:
    # arithmetic derivation keeps substreams independent of worker layout
    return (seed * 1_000_003 + 0x9E3779B9 * (chunk_index + 1)) & 0xFFFFFFFFFFFFFFFF


def _random_red_mask(rng: random.Random, n: int, red_count: int | None) -> int:
    """A red mask drawn uniformly over all 2^n, or over the C(n, red_count)
    masks with exactly ``red_count`` set bits.

    The fixed-composition draw works on the minority color, k of n bits.
    It starts from i.i.d. Bernoulli(p) bits, p = floor(256k/n)/256, built
    from whole random words: going from the lowest bit of p to the highest,
    OR in a fresh word where p's bit is 1 and AND one in where it is 0, so
    each step maps a bit's probability q to (1 + q)/2 or q/2.  ANDing into
    the empty mask changes nothing, so those words are not drawn.  Then
    single-bit fix-ups at uniform positions bring the popcount to exactly
    k: set a uniformly random clear bit while it is below k, clear a
    uniformly random set bit while it is above.

    The draw is exact.  The starting mask's law is invariant under every
    permutation of the players, and so is each fix-up step, whose choice
    depends only on the popcount.  So the result's law is invariant too,
    and permutations carry any mask with k set bits to any other: it is
    uniform over the C(n, k) of them.  The majority color is the complement.
    """
    if red_count is None:
        return rng.getrandbits(n)
    k = min(red_count, n - red_count)
    p = (k << 8) // n
    mask = 0
    for bit in range(8):
        if p >> bit & 1:
            mask |= rng.getrandbits(n)
        elif mask:
            mask &= rng.getrandbits(n)
    count = mask.bit_count()
    # the fix-ups only set bits or only clear them; a uniform position hits
    # a set bit with probability count/n, so below 1/16 pick one by rank
    while count > k and 16 * count < n:
        mask ^= _nth_set_bit(mask, rng.randrange(count))
        count -= 1
    surplus = count > k
    step = -1 if surplus else 1
    width = (n - 1).bit_length()
    while count != k:
        # a uniform position in 0..n-1, kept only if its bit needs flipping
        pos = rng.getrandbits(width)
        if pos < n and (mask >> pos & 1) == surplus:
            mask ^= 1 << pos
            count += step
    return mask if k == red_count else full_mask(n) ^ mask


def _nth_set_bit(mask: int, j: int) -> int:
    """The set bit of ``mask`` with j set bits below it, by bisection."""
    lo, hi = 0, mask.bit_length()  # the bit's position lies in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (mask & ((1 << mid) - 1)).bit_count() > j:
            hi = mid
        else:
            lo = mid
    return 1 << lo


def _sample_chunk(
    payload: tuple[StrategyProfile, int, int | None, int, int, int]
) -> _Partial:
    strategy, n, red_count, seed, chunk_index, count = payload
    rng = random.Random(_child_seed(seed, chunk_index))
    masks = (_random_red_mask(rng, n, red_count) for _ in range(count))
    return _reduce(_scorer(strategy, n), n, masks)


def monte_carlo(
    strategy: StrategyProfile,
    n: int,
    trials: int,
    red_count: int | str | None = None,
    seed: int = 0,
    workers: int = 1,
) -> WorstCaseReport:
    """Seeded sampled sweep; deterministic given the seed, for any worker count.

    Distributions are drawn uniformly over all 2^n, or uniformly among
    those with exactly ``red_count`` red hats.  Samples come in fixed-size
    chunks whose generators derive from the master seed, so the report is
    byte-identical however the chunks are scheduled.
    """
    if strategy.n != n:
        raise ContractError(f"strategy is for n={strategy.n}, asked to sample n={n}")
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise ContractError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ContractError(f"need at least one trial, got {trials}")
    _check_workers(workers)
    if red_count == "uniform":
        red_count = None
    if red_count is not None:
        # an int or its decimal text (the CLI's); a float or a bool is not a count
        bad = ContractError(f"red count must be an integer or 'uniform', got {red_count!r}")
        if isinstance(red_count, bool) or not isinstance(red_count, (int, str)):
            raise bad
        try:
            red_count = int(red_count)
        except ValueError:
            raise bad from None
        if not 0 <= red_count <= n:
            raise ContractError(f"red count {red_count} out of 0..{n}")
    payloads = []
    for chunk_index, lo in enumerate(range(0, trials, _SAMPLE_CHUNK)):
        count = min(_SAMPLE_CHUNK, trials - lo)
        payloads.append((strategy, n, red_count, seed, chunk_index, count))
    return _report(strategy, "sampled", _run_chunks(payloads, _sample_chunk, workers))
