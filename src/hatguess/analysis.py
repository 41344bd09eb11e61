"""Exhaustive and sampled verification of strategy guarantees.

Sweeps walk every distribution of n hats (or a seeded sample of them),
score a strategy on each, and reduce to a worst-case report: the minimum
correct count, the worst shortfall below max{r, b} with a witness, a
histogram, and the exact total over all distributions.

An exhaustive sweep of a rule that declares its ``parts`` (see
``strategies``) meets in the middle, in one process: it splits the
players into a low and a high half along part boundaries, tabulates each
half once per counted red count of the other half, and joins the two
tables by multiplicity.  The bit sweep, one bulk call per distribution,
serves every other rule and is the reference the tests compare the
factored sweep against.  The bit sweep and the sampler split their work
into chunks that merge associatively, so spreading them across worker
processes cannot change the result.

Alongside the sweeps sit the exact combinatorial checks: the averaging
identity (every no-peek strategy totals n * 2^(n-1) correct guesses over
all distributions), its binomial-sum form, the central-binomial floor
behind the impossibility bound, and a complete strategy-space search for
game sizes small enough to enumerate.

Exact integer arithmetic everywhere a claim is an identity; floating
point only for the transcendental bound formulas.
"""

from __future__ import annotations

import math
import os
import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import product
from multiprocessing import get_context
from typing import Iterable, NamedTuple

from .core import (
    CapacityError,
    ContractError,
    HatDistribution,
    StrategyProfile,
    evaluate,
    full_mask,
)

EXHAUSTIVE_MAX_N = 24
EXACT_TOTAL_MAX_N = 14
SEARCH_MAX_N = 3

_SAMPLE_CHUNK = 1024  # fixed so reports do not depend on the worker count


@dataclass(frozen=True)
class WorstCaseReport:
    """Outcome of evaluating one strategy over many distributions."""

    strategy_name: str
    n: int
    mode: str  # "exhaustive" | "sampled"
    min_correct: int
    worst_loss: int
    witness: HatDistribution
    histogram: dict[int, int]
    total_correct: int | None
    evaluated: int

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

    min_correct: int
    worst_loss: int
    witness_red_mask: int
    histogram: list[int]
    total: int
    evaluated: int


def _merge_partials(first: _Partial, second: _Partial) -> _Partial:
    hist = [a + b for a, b in zip(first.histogram, second.histogram)]
    worst, witness = first.worst_loss, first.witness_red_mask
    if second.worst_loss > worst:  # ties keep the earlier witness
        worst, witness = second.worst_loss, second.witness_red_mask
    return _Partial(
        min(first.min_correct, second.min_correct),
        worst,
        witness,
        hist,
        first.total + second.total,
        first.evaluated + second.evaluated,
    )


def _reduce(strategy: StrategyProfile, n: int, red_masks: Iterable[int]) -> _Partial:
    """Score each distribution in ``red_masks``; ties in worst loss keep the earliest."""
    full = full_mask(n)
    bulk = strategy.bulk
    if bulk is None:
        def correct(red_mask: int) -> int:
            return evaluate(strategy, HatDistribution(n, red_mask)).correct_count
    else:
        def correct(red_mask: int) -> int:
            return (~(bulk(red_mask) ^ red_mask) & full).bit_count()
    hist = [0] * (n + 1)
    worst_loss = -1
    witness = 0
    for red_mask in red_masks:
        cor = correct(red_mask)
        hist[cor] += 1
        r = red_mask.bit_count()
        loss = max(r, n - r) - cor
        if loss > worst_loss:
            worst_loss = loss
            witness = red_mask
    return _finish(hist, worst_loss, witness)


def _finish(hist: list[int], worst_loss: int, witness: int) -> _Partial:
    min_correct = next((c for c, k in enumerate(hist) if k), len(hist))
    total = sum(c * k for c, k in enumerate(hist))
    return _Partial(min_correct, worst_loss, witness, hist, total, sum(hist))


def _sweep_chunk(payload: tuple[StrategyProfile, int, int, int]) -> _Partial:
    """Score every distribution with index in [lo, hi).

    Index bit i-1 set means player i wears blue, so the sweep starts from
    the all-red distribution.
    """
    strategy, n, lo, hi = payload
    return _reduce(strategy, n, map(full_mask(n).__xor__, range(lo, hi)))


def _lowest_bits(mask: int, k: int) -> int:
    """The k lowest set bits of ``mask``."""
    out = 0
    for _ in range(k):
        bit = mask & -mask
        out |= bit
        mask ^= bit
    return out


def _split_point(n: int, part_masks: tuple[int, ...]) -> int:
    """The boundary m nearest n/2 (ties go low) with every part inside
    players 1..m or inside m+1..n; m = 0 always qualifies."""
    cuts = (
        m for m in range(n + 1)
        if all(p >> m == 0 or p & ((1 << m) - 1) == 0 for p in part_masks)
    )
    return min(cuts, key=lambda m: abs(2 * m - n))


def _check_parts(strategy: StrategyProfile, n: int) -> tuple[int, int]:
    """Validate the rule's ``parts`` against the players; return (counted mask, m)."""
    counted, part_masks = strategy.guess_rule.parts  # type: ignore[attr-defined]
    full = full_mask(n)
    union = 0
    for p in part_masks:
        if p & union or not p or p & ~full:
            raise ContractError(f"{strategy.name}: parts overlap, are empty or exceed n={n}")
        union |= p
    if union != full or counted & ~full:
        raise ContractError(f"{strategy.name}: parts must cover exactly the players 1..{n}")
    return counted, _split_point(n, part_masks)


def _half_table(bulk, half_mask: int, shift: int, counted_self: int, counted_other: int):
    """Score every pattern of one half (index i puts ``i << shift`` blue) once
    per counted red count of the other half, through the real bulk rule on
    a representative mask.

    Returns table[k_other][k_self] = (histogram of correct guesses inside
    the half, {red count in the half: (fewest correct, earliest index)}):
    only the fewest correct guesses matter to the worst loss, and the
    earliest pattern reaching them to the witness.
    """
    size = half_mask.bit_count()
    table = []
    for k_other in range(counted_other.bit_count() + 1):
        rest = _lowest_bits(counted_other, k_other)
        hists = [[0] * (size + 1) for _ in range(counted_self.bit_count() + 1)]
        fewest: list[dict[int, tuple[int, int]]] = [{} for _ in hists]
        for index in range(1 << size):
            red = half_mask ^ (index << shift)
            both = red | rest
            cor = (~(bulk(both) ^ both) & half_mask).bit_count()
            k_self = (red & counted_self).bit_count()
            hists[k_self][cor] += 1
            r_self = red.bit_count()
            seen = fewest[k_self].get(r_self)
            if seen is None or cor < seen[0]:
                fewest[k_self][r_self] = (cor, index)
        table.append(list(zip(hists, fewest)))
    return table


def _factored_sweep(strategy: StrategyProfile, n: int) -> _Partial:
    """The exhaustive sweep of a rule with ``parts``: join the two half tables
    at m = _split_point for every (k_high, k_low).  The index of a
    distribution is ``high << m | low``, as in the bit sweep, so keeping the
    smallest index among ties keeps the bit sweep's witness."""
    counted, m = _check_parts(strategy, n)
    full = full_mask(n)
    low = (1 << m) - 1
    high = full ^ low
    lows = _half_table(strategy.bulk, low, 0, counted & low, counted & high)
    highs = _half_table(strategy.bulk, high, m, counted & high, counted & low)
    hist = [0] * (n + 1)
    worst_loss, witness = -1, 0
    for k_high, row in enumerate(lows):
        for k_low, (low_hist, low_fewest) in enumerate(row):
            high_hist, high_fewest = highs[k_low][k_high]
            for cor_high, count in enumerate(high_hist):
                if count:
                    for cor_low, mult in enumerate(low_hist):
                        hist[cor_high + cor_low] += count * mult
            for r_high, (cor_high, first_high) in high_fewest.items():
                for r_low, (cor_low, first_low) in low_fewest.items():
                    r = r_high + r_low
                    loss = max(r, n - r) - cor_high - cor_low
                    index = first_high << m | first_low
                    if loss > worst_loss or (loss == worst_loss and index < witness):
                        worst_loss, witness = loss, index
    return _finish(hist, worst_loss, full ^ witness)


def _check_witness(strategy: StrategyProfile, n: int, part: _Partial) -> None:
    """Re-score the factored sweep's witness through the bulk rule on the full mask."""
    red = part.witness_red_mask
    r = red.bit_count()
    loss = max(r, n - r) - (~(strategy.bulk(red) ^ red) & full_mask(n)).bit_count()
    if loss != part.worst_loss:
        raise ContractError(
            f"{strategy.name}: the factored sweep found worst loss {part.worst_loss} "
            f"at {HatDistribution(n, red).to_text()}, where the bulk rule loses {loss}; "
            f"the rule's parts declaration does not hold"
        )


def _ranges(count: int, workers: int) -> list[tuple[int, int]]:
    """Split [0, count) into about 4 chunks per worker, each at least 1024 long."""
    step = max(1024, -(-count // (4 * workers))) if workers > 1 else count
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ContractError(f"need at least one worker, got {workers}")


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes to start: never more than the chunks or the CPUs."""
    return min(workers, chunks, os.cpu_count() or 1)


def _mp_context():
    """Fork where the platform has it, so workers inherit the loaded modules;
    spawn elsewhere."""
    try:
        return get_context("fork")
    except ValueError:
        return get_context("spawn")


def _run_chunks(payloads: list[tuple], worker, workers: int) -> _Partial:
    pool_size = _pool_size(workers, len(payloads))
    if pool_size == 1:
        return reduce(_merge_partials, map(worker, payloads))
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
    """Evaluate ``strategy`` on every one of the 2^n distributions."""
    if strategy.n != n:
        raise ContractError(f"strategy is for n={strategy.n}, asked to sweep n={n}")
    if n > EXHAUSTIVE_MAX_N:
        raise CapacityError(
            f"2^{n} distributions exceed the exhaustive range "
            f"(n <= {EXHAUSTIVE_MAX_N}); use monte_carlo for sampled checks"
        )
    _check_workers(workers)
    if strategy.bulk is not None and getattr(strategy.guess_rule, "parts", None) is not None:
        part = _factored_sweep(strategy, n)
        _check_witness(strategy, n, part)
    else:
        payloads = [(strategy, n, lo, hi) for lo, hi in _ranges(1 << n, workers)]
        part = _run_chunks(payloads, _sweep_chunk, workers)
    return WorstCaseReport(
        strategy_name=strategy.name,
        n=n,
        mode="exhaustive",
        min_correct=part.min_correct,
        worst_loss=part.worst_loss,
        witness=HatDistribution(n, part.witness_red_mask),
        histogram={c: k for c, k in enumerate(part.histogram) if k},
        total_correct=part.total,
        evaluated=part.evaluated,
    )


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


def identity_check(n: int) -> IdentityResult:
    """Exact check of sum over i != n/2 of C(n,i) * max{i, n-i} = 2^n * n/2.

    The left side is what the majority strategy totals over all
    distributions (it scores max{i, n-i} off balance and 0 at i = n/2);
    the right side is the strategy-independent total.
    """
    if n < 2 or n % 2:
        raise ContractError(f"identity needs a positive even n, got {n}")
    lhs = sum(math.comb(n, i) * max(i, n - i) for i in range(n + 1) if i != n // 2)
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

    The exact central binomial is a big integer; only the floor formula is
    floating point.  Python compares int to float exactly.
    """
    if n < 2 or n % 2:
        raise ContractError(f"need a positive even n, got {n}")
    bound = (1 << n) * math.sqrt(2 / (math.pi * n)) * math.exp(-1 / (3 * n))
    return math.comb(n, n // 2) >= bound


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
    keys = [
        [_view_key(red_mask, pos) for pos in range(n)] for red_mask in range(1 << n)
    ]
    losses = [
        max(r.bit_count(), n - r.bit_count()) for r in range(1 << n)
    ]
    best_min = -1
    best_loss = n + 1
    enumerated = 0
    for tables in product(range(1 << views), repeat=n):
        enumerated += 1
        low = n + 1
        high_loss = -1
        for red_mask in range(1 << n):
            key_row = keys[red_mask]
            cor = 0
            for pos in range(n):
                if (tables[pos] >> key_row[pos]) & 1 == (red_mask >> pos) & 1:
                    cor += 1
            if cor < low:
                low = cor
            loss = losses[red_mask] - cor
            if loss > high_loss:
                high_loss = loss
        if low > best_min:
            best_min = low
        if high_loss < best_loss:
            best_loss = high_loss
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
    return _reduce(strategy, n, (_random_red_mask(rng, n, red_count) for _ in range(count)))


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
    if trials < 1:
        raise ContractError(f"need at least one trial, got {trials}")
    _check_workers(workers)
    if red_count == "uniform":
        red_count = None
    if red_count is not None:
        try:
            red_count = int(red_count)
        except (TypeError, ValueError):
            raise ContractError(
                f"red count must be an integer or 'uniform', got {red_count!r}"
            ) from None
        if not 0 <= red_count <= n:
            raise ContractError(f"red count {red_count} out of 0..{n}")
    payloads = []
    for chunk_index, lo in enumerate(range(0, trials, _SAMPLE_CHUNK)):
        count = min(_SAMPLE_CHUNK, trials - lo)
        payloads.append((strategy, n, red_count, seed, chunk_index, count))
    part = _run_chunks(payloads, _sample_chunk, workers)
    return WorstCaseReport(
        strategy_name=strategy.name,
        n=n,
        mode="sampled",
        min_correct=part.min_correct,
        worst_loss=part.worst_loss,
        witness=HatDistribution(n, part.witness_red_mask),
        histogram={c: k for c, k in enumerate(part.histogram) if k},
        total_correct=None,
        evaluated=part.evaluated,
    )
