"""The orbit-compressed exhaustive sweep against the bit sweep, its reference.

Rules that declare ``parts`` are swept by scoring each part's cell types
per red count of the part and per value of the red total it reads.
Every report here must equal, field for field, the report of the bit
sweep (``_sweep_chunk`` over all 2^n distributions): worst loss, earliest
witness and histogram, and so the min, total and count read off it.
"""

import concurrent.futures
import random
import re
from itertools import product
from operator import mul

import pytest

from hatguess import (
    CapacityError,
    Color,
    ContractError,
    HatDistribution,
    Pairing,
    Part,
    PartialStrategyParams,
    PartitionPlan,
    StrategyProfile,
    VisibleView,
    canonical_pairing,
    composite_strategy,
    evaluate,
    exhaustive_worst_case,
    guarantee_bound,
    majority_strategy,
    make_partition,
    pairing_strategy,
    partial_profile,
)
from hatguess import analysis, strategies
from hatguess.core import full_mask
from hatguess.analysis import _sweep_chunk


def refuse_bit_sweep(payload):
    raise AssertionError("the bit sweep ran where the orbit sweep should")


def assert_orbit_exact(monkeypatch, strategy, n, workers=1):
    want = _sweep_chunk((strategy, n, 0, 1 << n))
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_sweep_chunk", refuse_bit_sweep)
        report = exhaustive_worst_case(strategy, n, workers=workers)
    assert report.mode == "exhaustive"
    assert report == analysis._report(strategy, "exhaustive", want)


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_pairing(monkeypatch, n):
    assert_orbit_exact(monkeypatch, pairing_strategy(canonical_pairing(n)), n)


@pytest.mark.parametrize("tie_break", [Color.RED, Color.BLUE])
@pytest.mark.parametrize("n", range(2, 17))
def test_majority(monkeypatch, n, tie_break):
    assert_orbit_exact(monkeypatch, majority_strategy(n, tie_break), n)


@pytest.mark.parametrize("n", range(2, 19))
def test_composite(monkeypatch, n):
    assert_orbit_exact(monkeypatch, composite_strategy(n), n)


def equal_plan(n, k):
    size = n // k
    blocks = tuple(tuple(range(start, start + size)) for start in range(1, n + 1, size))
    return PartitionPlan(blocks)


@pytest.mark.parametrize("spectator", [0, 1])
@pytest.mark.parametrize("n,k", [(12, 3), (16, 4), (18, 3), (12, 6), (16, 2)])
def test_hand_built_plans(monkeypatch, n, k, spectator):
    plan = equal_plan(n, k)
    rule = strategies.BlockThresholdRule(canonical_pairing(n), plan.blocks, plan)
    if spectator:
        rule = strategies.SpectatorCompositeRule(n + 1, rule)
    strategy = StrategyProfile(n + spectator, rule, "composite")
    assert_orbit_exact(monkeypatch, strategy, n + spectator)


def partial_block(n, members, blue_max, red_min):
    members = frozenset(members)
    params = PartialStrategyParams(members, blue_max, red_min)
    return partial_profile(params, n)


@pytest.mark.parametrize("where", ["bottom", "middle", "top", "split"])
@pytest.mark.parametrize("n", [10, 12, 14])
@pytest.mark.parametrize("size,blue_max,red_min", [(4, 0, 2), (6, 1, 4)])
def test_partial_profile(monkeypatch, n, where, size, blue_max, red_min):
    if where == "split":  # half the block's pairs at each end, as --block 1,2,n-1,n places them
        low = size // 4 * 2
        members = [*range(1, low + 1), *range(n - size + low + 1, n + 1)]
    else:
        start = {"bottom": 1, "middle": 2 * ((n - size) // 4) + 1, "top": n - size + 1}[where]
        members = range(start, start + size)
    assert_orbit_exact(monkeypatch, partial_block(n, members, blue_max, red_min), n)


def chain_pairing(n):
    """(1,3), (2,5), (4,7), ..., (n-2, n): some pair straddles every boundary."""
    return Pairing(((1, 3),) + tuple((j, j + 3) for j in range(2, n - 3, 2)) + ((n - 2, n),))


@pytest.mark.parametrize("n", range(6, 15, 2))
def test_pairs_across_every_boundary_split_at_zero(monkeypatch, n):
    strategy = pairing_strategy(chain_pairing(n))
    pairs = strategy.guess_rule.pairing.pairs
    assert not any(all((x <= m) == (y <= m) for x, y in pairs) for m in range(1, n))
    assert_orbit_exact(monkeypatch, strategy, n)


def test_chain_pairing_past_the_bit_sweep():
    report = exhaustive_worst_case(pairing_strategy(chain_pairing(60)), 60)
    assert report.worst_loss == 30
    assert report.witness.red_mask == full_mask(60)  # all red, the bit sweep's first distribution
    assert report.histogram == {30: 1 << 60}


def test_split_partial_block_past_the_bit_sweep():
    # hatguess sweep --strategy partial --block 1,2,39,40 --a 0 --b 2 --n 40
    n = 40
    strategy = partial_block(n, {1, 2, 39, 40}, 0, 2)
    assert strategy.guess_rule.parts[0].cells == ((1, 2), (39, 40))  # the block, around the pairs
    report = exhaustive_worst_case(strategy, n)
    record = evaluate(strategy, report.witness)  # the witness, re-scored per player
    target = max(report.witness.red_count, report.witness.blue_count)
    assert target - record.correct_count == report.worst_loss
    assert report.evaluated == sum(report.histogram.values()) == 1 << n
    assert report.total_correct == n << (n - 1)  # the averaging identity


def run_to_end(search):
    """Drive a witness search to its last player; its (red mask, correct)."""
    while True:
        try:
            next(search)
        except StopIteration as done:
            return done.value


@pytest.mark.parametrize("n", [21, 34, 64])
def test_one_witness_search_runs_to_the_end(monkeypatch, n):
    started, finished = [], []
    witness = analysis._witness

    def tracked(*args):
        started.append(args)
        found = yield from witness(*args)
        finished.append(found)
        return found

    monkeypatch.setattr(analysis, "_witness", tracked)
    report = exhaustive_worst_case(composite_strategy(n), n)
    assert len({args[2] for args in started}) == len(started) == 2  # two residues reach it
    assert len(finished) == 1
    whole = [run_to_end(witness(*args)) for args in started]
    earliest = min(whole, key=lambda found: full_mask(n) ^ found[0])  # the bit sweep's index
    assert finished == [earliest]
    assert report.witness.red_mask == earliest[0]


def interleave(groups):
    """Whether the spans, lowest to highest player, of some two groups overlap."""
    spans = sorted((min(group), max(group)) for group in groups)
    return any(low < high for (_, high), (low, _) in zip(spans, spans[1:]))


def shuffled_plan(n, k, seed):
    """A plan whose pairs and blocks are scattered over the players, so that
    parts interleave and so do the cells inside a part, and its pairing."""
    rng = random.Random(seed)
    players = list(range(1, n + 1))
    rng.shuffle(players)
    pairs = tuple(tuple(players[i : i + 2]) for i in range(0, n, 2))
    per_block = n // k // 2
    blocks = tuple(sum(pairs[b * per_block : (b + 1) * per_block], ()) for b in range(k))
    return PartitionPlan(blocks), Pairing(pairs)


@pytest.mark.parametrize("spectator", [0, 1])
@pytest.mark.parametrize("n,k,seed", [(8, 2, 1), (12, 3, 2), (12, 2, 3)])
def test_interleaved_parts_and_cells(monkeypatch, n, k, seed, spectator):
    plan, pairing = shuffled_plan(n, k, seed)
    rule = strategies.BlockThresholdRule(pairing, plan.blocks, plan)
    if spectator:
        rule = strategies.SpectatorCompositeRule(n + 1, rule)
    strategy = StrategyProfile(n + spectator, rule, "composite")
    parts = strategy.guess_rule.parts
    assert interleave([sum(part.cells, ()) for part in parts]) or any(
        interleave(part.cells) for part in parts
    )
    assert_orbit_exact(monkeypatch, strategy, n + spectator)


def test_nested_cells_in_fixed_blocks(monkeypatch):
    # pairs (4, 1) and (3, 2) nest inside block 1..4, (8, 5) and (6, 7) inside 5..8
    pairing = Pairing(((4, 1), (3, 2), (8, 5), (6, 7)))
    rule = strategies.BlockThresholdRule(
        pairing, ((4, 1, 3, 2), (8, 5, 6, 7)), (((0, 3),), ((0, 3),))
    )
    assert_orbit_exact(monkeypatch, StrategyProfile(8, rule, "nested"), 8)


def test_blocks_tied_by_a_pair_declare_no_parts():
    # blocks {1,3} and {2,4} under the pairs (1,2), (3,4): every pair crosses them
    rule = strategies.BlockThresholdRule(
        canonical_pairing(4), ((1, 3), (2, 4)), (((-1, 1),), ((-1, 1),))
    )
    assert rule.parts is None
    strategy = StrategyProfile(4, rule, "tied-blocks")
    report = exhaustive_worst_case(strategy, 4)
    assert (report.worst_loss, report.witness.red_mask) == _sweep_chunk((strategy, 4, 0, 16))[:2]


class NoPool:
    """Stands in for ProcessPoolExecutor and fails if any pool is asked for."""

    def __init__(self, max_workers, mp_context):
        raise AssertionError("the orbit sweep asked for a process pool")


@pytest.mark.parametrize(
    "strategy,n,workers",
    [(composite_strategy(17), 17, 3), (majority_strategy(13), 13, 5), (composite_strategy(14), 14, 64)],
)
def test_factored_sweep_starts_no_pool(monkeypatch, strategy, n, workers):
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert_orbit_exact(monkeypatch, strategy, n, workers=workers)


class CountsTooLittle:
    """The spectator around the n = 2 pairing, declaring that it reads nothing.

    The spectator reads hats 1 and 2, so its true part reads R exactly.
    """

    def __init__(self):
        self.rule = composite_strategy(3).guess_rule
        self.parts = self.rule.parts[:-1] + (Part(((3,),), 1),)

    def __call__(self, observer, view):
        return self.rule(observer, view)

    def bulk_guesses(self, red_mask):
        return self.rule.bulk_guesses(red_mask)


def one_part_table(bulk, r_mask, part):
    """A part's correct guesses from one bulk call per composition and read
    value, on a mask where the part's cells take their types in order and
    the lowest players outside it that R counts are red as often as v
    needs: (reds, cor), reds[i] the red hats of the i-th composition in
    ``_compositions`` order and cor[v][i] its correct guesses, None where no
    distribution has them.  The reference for the sweep's per-type tables."""
    cells = part.cells
    arity = len(cells[0])
    roles = [[0] for _ in range(arity)]
    for cell in cells:
        for role, p in zip(roles, cell):
            role.append(role[-1] | 1 << (p - 1))
    mask = part.mask
    rest = r_mask & ~mask
    outs = [0]
    needed = rest.bit_count() if part.modulus == 0 else min(part.modulus - 1, rest.bit_count())
    for _ in range(needed):
        bit = rest & -rest
        outs.append(outs[-1] | bit)
        rest ^= bit
    reads = part.modulus or len(outs)
    comps = [comp for comp, _ in analysis._compositions(len(cells), 1 << arity)]
    cor = [[None] * len(comps) for _ in range(reads)]
    reds = []
    for i, comp in enumerate(comps):
        red = start = 0
        for kind, count in enumerate(comp):
            end = start + count
            for role in range(arity):
                if not kind >> (arity - 1 - role) & 1:
                    red |= roles[role][end] ^ roles[role][start]
            start = end
        c = red.bit_count()
        reds.append(c)
        for v in range(reads):
            t = (v - c) % part.modulus if part.modulus else v
            if t < len(outs):
                both = red | outs[t]
                cor[v][i] = (~(bulk(both) ^ both) & mask).bit_count()
    return reds, cor


def spectator_read_alone(part_tables):
    """``part_tables`` for CountsTooLittle, with the spectator scored as a
    call that places it alone reads it: hats 1 and 2 blue, so it calls blue,
    right in blue (type B, 0 red hats) and wrong in red."""

    def tables(strategy, r_mask, parts):
        pair, _ = part_tables(strategy, r_mask, parts)
        return [pair, analysis._PartTable(parts[1], 0b100, [[(0, 1), (0, 0)]])]

    return tables


def test_oracle_catches_a_counted_mask_too_small(monkeypatch):
    strategy = StrategyProfile(3, CountsTooLittle(), "counts-too-little")
    oracle = _sweep_chunk((strategy, 3, 0, 8))
    assert oracle.worst_loss == 1
    with pytest.raises(ContractError, match=r"the part \(\(3,\),\) has 0 .*per cell type give 1"):
        exhaustive_worst_case(strategy, 3)  # the parts check, on a mask with hats 1 or 2 red
    monkeypatch.setattr(analysis, "_CELL_CHECKS", 0)
    # the spectator shares the pair's calls and is read right in both colors
    with pytest.raises(ContractError, match="counted 8 distributions and 16 correct guesses"):
        exhaustive_worst_case(strategy, 3)  # the guard on the total
    monkeypatch.setattr(analysis, "_part_tables", spectator_read_alone(analysis._part_tables))
    with pytest.raises(ContractError, match="worst loss 2 .*parts declaration does not hold"):
        exhaustive_worst_case(strategy, 3)  # the witness re-check, on its own: the total holds


class ReadsTheOtherPart:
    """The pairing at n = 6 declaring the parts {(1, 2), (3, 4)} and {(5, 6)},
    whose player 5 flips their guess when exactly one of hats 1..4 is red:
    the guesses of (5, 6) depend on the other part's composition."""

    def __init__(self):
        self.rule = strategies.BlockThresholdRule(canonical_pairing(6), (), ())
        self.parts = (Part(((1, 2), (3, 4)), 1), Part(((5, 6),), 1))

    def __call__(self, observer, view):
        guess = self.rule(observer, view)
        if observer == 5 and view.count_red(0b1111) == 1:
            return guess.opposite()
        return guess

    def bulk_guesses(self, red_mask):
        return self.rule.bulk_guesses(red_mask) ^ ((red_mask & 0b1111).bit_count() == 1) << 4


def test_a_part_that_reads_another_part_is_caught(monkeypatch):
    strategy = StrategyProfile(6, ReadsTheOtherPart(), "reads-the-other-part")
    with pytest.raises(ContractError, match=r"the part \(\(5, 6\),\) has 0 .*per cell type give 1"):
        exhaustive_worst_case(strategy, 6)  # the parts check
    # the shared calls read (5, 6) as RB and BR beside one red hat in 1..4,
    # where player 5 flips, so its table scores them 2
    monkeypatch.setattr(analysis, "_CELL_CHECKS", 0)
    with pytest.raises(ContractError, match="counted 64 distributions and 224 correct guesses"):
        exhaustive_worst_case(strategy, 6)  # the guard on the total


class MissesAPlayer(CountsTooLittle):
    def __init__(self):
        super().__init__()
        self.parts = self.rule.parts[:-1]


def test_parts_must_cover_every_player():
    strategy = StrategyProfile(3, MissesAPlayer(), "misses-a-player")
    with pytest.raises(ContractError, match="cover exactly"):
        exhaustive_worst_case(strategy, 3)


class TwoExactReaders(CountsTooLittle):
    """Majority at n = 4 declaring players 1 and 2 as one part that reads R
    exactly."""

    def __init__(self):
        self.rule = majority_strategy(4).guess_rule
        self.parts = (Part(((1,), (2,)), 0), Part(((3,), (4,)), 1))


def test_an_exact_reader_must_be_one_single_player():
    strategy = StrategyProfile(4, TwoExactReaders(), "two-exact-readers")
    with pytest.raises(ContractError, match="one single player"):
        analysis._check_parts(strategy, 4)


class PeekingSpectator(CountsTooLittle):
    """composite_strategy(5) whose bulk path makes the spectator, player 5,
    call their own hat.  Their part agrees with its own table, so only the
    one-of-two-colors check can see it."""

    def __init__(self):
        self.rule = composite_strategy(5).guess_rule
        self.parts = self.rule.parts

    def bulk_guesses(self, red_mask):
        return self.rule.bulk_guesses(red_mask) & 0b01111 | red_mask & 0b10000


def test_a_spectator_who_peeks_is_caught():
    strategy = StrategyProfile(5, PeekingSpectator(), "peeking-spectator")
    with pytest.raises(ContractError, match="player 5 reads R exactly .*their own hat"):
        exhaustive_worst_case(strategy, 5)


class SpectatorAt:
    """A rule on n players whose exact reader is player n, relabeled so that
    the reader is player s and players s..n-1 move up by one."""

    def __init__(self, rule, n, s):
        self.rule, self.n, self.s = rule, n, s
        self.parts = tuple(
            Part(tuple(tuple(map(self.outer, cell)) for cell in part.cells), part.modulus)
            for part in rule.parts
        )

    def outer(self, p):
        return self.s if p == self.n else p + (p >= self.s)

    def inner(self, p):
        return self.n if p == self.s else p - (p > self.s)

    def to_inner(self, mask):
        s, n = self.s, self.n
        return mask & full_mask(s - 1) | (mask >> s) << (s - 1) | (mask >> (s - 1) & 1) << (n - 1)

    def to_outer(self, mask):
        s, n = self.s, self.n
        return mask & full_mask(s - 1) | (mask >> (s - 1) & full_mask(n - s)) << s | (
            mask >> (n - 1) & 1
        ) << (s - 1)

    def __call__(self, observer, view):
        hats = HatDistribution(self.n, self.to_inner(view.distribution.red_mask))
        return self.rule(self.inner(observer), VisibleView(hats, self.inner(observer)))

    def bulk_guesses(self, red_mask):
        return self.to_outer(self.rule.bulk_guesses(self.to_inner(red_mask)))


@pytest.mark.parametrize("n", [3, 7, 13])
def test_the_spectator_may_sit_below_every_other_part(monkeypatch, n):
    """The witness reaches the exact reader after every other part when the
    reader is player 1 (at n = 3: the reader (1,) beside the pair (2, 3))."""
    for s in range(1, n + 1):
        rule = SpectatorAt(composite_strategy(n).guess_rule, n, s)
        assert rule.parts[-1] == Part(((s,),), 0)
        assert_orbit_exact(monkeypatch, StrategyProfile(n, rule, "moved-spectator"), n)


@pytest.mark.parametrize("n", [35, 129, 257])
def test_odd_certificates_are_the_inner_rule_times_one_plus_y(n):
    """The spectator is right in exactly one of their two colors on every
    distribution of the others, so the odd-n histogram is the inner even
    rule's at n - 1 times (1 + y)."""
    strategy = composite_strategy(n)
    report = exhaustive_worst_case(strategy, n)
    inner = exhaustive_worst_case(composite_strategy(n - 1), n - 1).histogram
    times = {c: inner.get(c, 0) + inner.get(c - 1, 0) for c in range(n + 1)}
    assert report.histogram == {c: k for c, k in times.items() if k}
    assert report.evaluated == 1 << n
    assert report.total_correct == n << (n - 1)  # the averaging identity
    record = evaluate(strategy, report.witness)  # the witness, re-scored per player
    target = max(report.witness.red_count, report.witness.blue_count)
    assert target - record.correct_count == report.worst_loss
    assert report.worst_loss <= guarantee_bound(n).theorem_loss_general


def test_odd_composite_999_fits_the_sweep_budget():
    strategy = composite_strategy(999)
    parts = analysis._check_parts(strategy, 999)
    assert analysis._orbit_cost(999, parts) <= analysis._SWEEP_BUDGET


def test_the_budget_admits_the_composite_to_1981():
    """The orbit sweep's estimate, compositions walked per read value plus
    histogram bytes, at the edge of the budget; no sweep runs."""
    costs = {1980: 25_134_361, 1981: 25_142_286, 1982: 25_205_289, 1983: 25_213_222}
    for n, cost in costs.items():
        strategy = composite_strategy(n)
        assert analysis._orbit_cost(n, analysis._check_parts(strategy, n)) == cost
        assert (cost <= analysis._SWEEP_BUDGET) == (n <= 1981)
        if n > 1981:
            with pytest.raises(CapacityError, match="compositions walked per read value"):
                exhaustive_worst_case(strategy, n)


def test_factored_sweep_calls_the_bulk_rule_far_fewer_times():
    strategy = composite_strategy(21)
    rule = strategy.guess_rule
    bulk = rule.bulk_guesses
    calls = 0

    def counting(red_mask):
        nonlocal calls
        calls += 1
        return bulk(red_mask)

    rule.bulk_guesses = counting
    report = exhaustive_worst_case(strategy, 21)
    assert calls <= 150  # the bit sweep calls it 2^21 = 2_097_152 times
    assert report.evaluated == 1 << 21
    assert report.total_correct == 21 << 20  # the averaging identity


# n -> exact worst loss of the default plan; k = 3 from n = 34, k = 4 at 128 and 256
DEFAULT_PLAN_CERTIFICATES = {34: 9, 64: 14, 100: 20, 128: 22, 256: 38}


@pytest.mark.parametrize("n", sorted(DEFAULT_PLAN_CERTIFICATES))
def test_exact_certificates_for_default_plans_past_the_bit_sweep(n):
    strategy = composite_strategy(n)
    report = exhaustive_worst_case(strategy, n)
    plan = make_partition(n)
    assert report.worst_loss == DEFAULT_PLAN_CERTIFICATES[n]
    assert report.worst_loss <= guarantee_bound(n, plan).structural_loss
    assert plan.k >= 3
    assert report.evaluated == sum(report.histogram.values()) == 1 << n
    assert report.total_correct == n << (n - 1)  # the averaging identity
    record = evaluate(strategy, report.witness)  # the witness, re-scored per player
    target = max(report.witness.red_count, report.witness.blue_count)
    assert target - record.correct_count == report.worst_loss


class PairsByName:
    """Canonical pairing at n = 6 that declares one part of three pair cells,
    but whose player 3 always calls red: the guesses depend on which pair is
    which."""

    def __init__(self):
        self.rule = strategies.BlockThresholdRule(canonical_pairing(6), (), ())
        self.parts = (Part(((1, 2), (3, 4), (5, 6)), 1),)

    def __call__(self, observer, view):
        return Color.RED if observer == 3 else self.rule(observer, view)

    def bulk_guesses(self, red_mask):
        return self.rule.bulk_guesses(red_mask) | 0b100


class CountsItsRRPairs:
    """composite_strategy(12) whose block members flip their guess when they
    see an odd number of RR pairs among the other pairs of their block.  A
    member's guess depends only on the block's composition and the cell's
    own type, but a cell's score at a fixed red count and read value
    depends on how many RR pairs hold those red hats."""

    def __init__(self):
        self.rule = composite_strategy(12).guess_rule
        self.parts = self.rule.parts
        self.blocks = [part.mask for part in self.parts]

    def __call__(self, observer, view):
        guess = self.rule(observer, view)
        block = next(part for part in self.parts if observer in sum(part.cells, ()))
        rr = sum(
            view.color_of(x) is view.color_of(y) is Color.RED
            for x, y in block.cells
            if observer not in (x, y)
        )
        return guess.opposite() if rr % 2 else guess

    def bulk_guesses(self, red_mask):
        guesses = self.rule.bulk_guesses(red_mask)
        for inside in self.blocks:
            rr = red_mask & red_mask >> 1 & inside & 0x555  # first players of RR pairs
            players = rr | rr << 1
            guesses ^= inside & ~players if rr.bit_count() % 2 else players
        return guesses


def test_a_cell_whose_score_counts_rr_pairs_is_caught():
    strategy = StrategyProfile(12, CountsItsRRPairs(), "counts-rr-pairs")
    for red in range(1 << 12):  # a rule that never peeks: both paths agree everywhere
        hats = HatDistribution(12, red)
        assert evaluate(strategy, hats).correct_count == analysis._scorer(strategy, 12)(red)
    # at 4 red hats, RR scores 0 in the cover (2 RR, 1 BB) and 2 in (1 RR, 1 RB, 1 BR)
    part = re.escape("the RR cells of the part ((1, 2), (3, 4), (5, 6))")
    with pytest.raises(ContractError, match=f"{part} score differently at 4 red hats"):
        exhaustive_worst_case(strategy, 12)


def test_cells_that_are_not_interchangeable_are_caught(monkeypatch):
    strategy = StrategyProfile(6, PairsByName(), "pairs-by-name")
    monkeypatch.setattr(analysis, "_CELL_CHECKS", 0)
    part = re.escape("the BB cells of the part ((1, 2), (3, 4), (5, 6))")
    with pytest.raises(ContractError, match=f"{part} score differently at 0 red hats"):
        exhaustive_worst_case(strategy, 6)  # the tables: players 1 and 5 call blue, 3 red


class FlipsOnTheLastHat:
    """Canonical pairing at n whose player n - 3 flips their guess when hat n
    is red (and, with ``only_if_hat_1_blue``, hat 1 is blue).  Each pair is
    declared a part that reads nothing, but pair (n - 3, n - 2) reads hat n."""

    def __init__(self, n, only_if_hat_1_blue):
        self.n = n
        self.only_if_hat_1_blue = only_if_hat_1_blue
        self.rule = strategies.BlockThresholdRule(canonical_pairing(n), (), ())
        self.parts = self.rule.parts

    def lies(self, is_red):
        return is_red(self.n) and not (self.only_if_hat_1_blue and is_red(1))

    def __call__(self, observer, view):
        guess = self.rule(observer, view)
        if observer == self.n - 3 and self.lies(lambda p: view.color_of(p) is Color.RED):
            return guess.opposite()
        return guess

    def bulk_guesses(self, red_mask):
        guesses = self.rule.bulk_guesses(red_mask)
        if self.lies(lambda p: red_mask >> (p - 1) & 1):
            guesses ^= 1 << (self.n - 4)
        return guesses


@pytest.mark.parametrize("only_if_hat_1_blue", [False, True])
@pytest.mark.parametrize("n", [70, 100])
def test_every_part_is_checked_against_its_table(n, only_if_hat_1_blue):
    # pair (67, 68) is the 34th of 35 parts at n = 70
    strategy = StrategyProfile(n, FlipsOnTheLastHat(n, only_if_hat_1_blue), "flips-on-last-hat")
    everyone_but_1 = HatDistribution(n, full_mask(n) ^ 1)
    assert evaluate(strategy, everyone_but_1).correct_count == n // 2 - 1  # the pairing's n/2, less one
    part = re.escape(f"the part (({n - 3}, {n - 2}),)")
    with pytest.raises(ContractError, match=f"{part} .*parts declaration does not hold"):
        exhaustive_worst_case(strategy, n)


def bulk_calls(strategy, n):
    rule = strategy.guess_rule
    bulk = rule.bulk_guesses
    calls = 0

    def counting(red_mask):
        nonlocal calls
        calls += 1
        return bulk(red_mask)

    rule.bulk_guesses = counting
    exhaustive_worst_case(strategy, n)
    return calls


def test_joint_calls_cover_the_parts_together():
    # 4 blocks, 4 read values, 71 covers over the 65 red counts of 32 pairs: 1_136 calls
    assert bulk_calls(composite_strategy(256), 256) <= 1_300
    # the pairs read nothing and share 4 calls
    assert bulk_calls(pairing_strategy(canonical_pairing(1024)), 1024) <= 64
    # one part of single players: 13 red counts, one cover each, 32 seeded masks and the
    # witness re-score
    assert bulk_calls(majority_strategy(12), 12) == 46


def assert_joint_tables_exact(strategy):
    """Every composition at every read value scores, by the sweep's scores
    per cell type, what one call per composition reads off it."""
    n = strategy.n
    parts = analysis._check_parts(strategy, n)
    r_mask = full_mask(n) ^ sum(part.mask for part in parts if not part.modulus)
    for table, part in zip(analysis._part_tables(strategy, r_mask, parts), parts):
        reds, want = one_part_table(strategy.bulk, r_mask, part)
        comps = list(analysis._compositions(len(part.cells), 1 << len(part.cells[0])))
        assert [c for _, c in comps] == reds
        got = [
            [None if row[c] is None else sum(map(mul, comp, row[c])) for comp, c in comps]
            for row in table.scores
        ]
        assert (table.part, table.mask, got) == (part, part.mask, want)


@pytest.mark.parametrize("spectator", [0, 1])
@pytest.mark.parametrize("n,k,seed", [(8, 2, 1), (12, 3, 2), (12, 2, 3)])
def test_joint_tables_on_interleaved_parts(n, k, seed, spectator):
    plan, pairing = shuffled_plan(n, k, seed)
    rule = strategies.BlockThresholdRule(pairing, plan.blocks, plan)
    if spectator:
        rule = strategies.SpectatorCompositeRule(n + 1, rule)
    assert_joint_tables_exact(StrategyProfile(n + spectator, rule, "composite"))


def test_joint_tables_of_a_fixed_block_and_loose_pairs():
    assert_joint_tables_exact(partial_block(14, {3, 4, 5, 6, 11, 12}, 1, 4))


def test_joint_tables_of_the_chain_pairing():
    assert_joint_tables_exact(pairing_strategy(chain_pairing(14)))


class ReadsTwoModuli:
    """The pairing at n = 10 with the parts {(1, 2), (3, 4)} reading R mod 2
    and {(5, 6), (7, 8), (9, 10)} reading R mod 3: each first player of a
    pair flips their guess when the red hats outside their part are 1 mod 2,
    or 1 mod 3."""

    def __init__(self):
        self.rule = strategies.BlockThresholdRule(canonical_pairing(10), (), ())
        self.parts = (Part(((1, 2), (3, 4)), 2), Part(((5, 6), (7, 8), (9, 10)), 3))

    def flips(self, red_mask):
        low, high = (red_mask & 0b1111).bit_count(), (red_mask >> 4).bit_count()
        return (0b0101 if high % 2 == 1 else 0) | (0b010101 << 4 if low % 3 == 1 else 0)

    def __call__(self, observer, view):
        guess = self.rule(observer, view)
        if self.flips(view.distribution.red_mask) >> (observer - 1) & 1:
            return guess.opposite()
        return guess

    def bulk_guesses(self, red_mask):
        return self.rule.bulk_guesses(red_mask) ^ self.flips(red_mask)


def test_joint_tables_across_two_moduli(monkeypatch):
    """K = 6: each part reads R alone, the small part mod 2 and the large
    one mod 3."""
    strategy = StrategyProfile(10, ReadsTwoModuli(), "two-moduli")
    assert_joint_tables_exact(strategy)
    assert_orbit_exact(monkeypatch, strategy, 10)


# a pair of the pairing at modulus 1: right exactly once in each of its 4 arrangements
PAIR_ROW = [{(2, 1): 1, (1, 1): 2, (0, 1): 1}]


def test_combine_two_pairs():
    losses, chains, hist = analysis._combine([PAIR_ROW, PAIR_ROW], None, 4)
    assert losses == [2]
    assert chains[0][0] == [2, 2, 2, 2, 2]  # the fewest correct guesses at R = 0..4
    assert hist == [0, 0, 16, 0, 0]


def test_combine_joins_the_exact_reader():
    """composite_strategy(5): two pairs, and the spectator, player 5, who
    calls blue while R <= 1 and red from R = 2 on."""
    # scores[R][c] per type (R, B): in blue (c = 0) it holds type B, in red (c = 1) type R
    scores = [[(0, 1), (0, 0)]] * 2 + [[(0, 0), (1, 0)]] * 3
    spectator = analysis._PartTable(Part(((5,),), 0), 0b10000, scores)
    losses, _, hist = analysis._combine([PAIR_ROW, PAIR_ROW], spectator, 5)
    assert losses == [2]
    assert hist == [0, 0, 16, 16, 0, 0]
    want = _sweep_chunk((composite_strategy(5), 5, 0, 1 << 5))
    assert (max(losses), hist) == (want.worst_loss, want.histogram)


def test_combine_across_two_moduli():
    """K = 6: each residue's worst loss and the histogram, against every
    distribution."""
    strategy = StrategyProfile(10, ReadsTwoModuli(), "two-moduli")
    tables = analysis._part_tables(strategy, full_mask(10), strategy.guess_rule.parts)
    losses, _, hist = analysis._combine([analysis._row(t) for t in tables], None, 10)
    correct = analysis._scorer(strategy, 10)
    want = [-1] * 6
    for red in range(1 << 10):
        r = red.bit_count()
        want[r % 6] = max(want[r % 6], max(r, 10 - r) - correct(red))
    assert losses == want
    assert hist == _sweep_chunk((strategy, 10, 0, 1 << 10)).histogram


def test_the_parts_check_makes_one_bulk_call_per_seeded_mask(monkeypatch):
    calls = []
    strategy = composite_strategy(21)
    rule = strategy.guess_rule
    bulk = rule.bulk_guesses
    rule.bulk_guesses = lambda red_mask: calls.append(red_mask) or bulk(red_mask)
    exhaustive_worst_case(strategy, 21)
    checked = len(calls)
    calls.clear()
    monkeypatch.setattr(analysis, "_CELL_CHECKS", 0)
    exhaustive_worst_case(strategy, 21)
    assert checked - len(calls) == 32
    assert checked <= 150


@pytest.mark.parametrize("kinds", [2, 4])
def test_compositions_hold_each_count_tuple_once(kinds):
    reds = (1, 0) if kinds == 2 else (2, 1, 1, 0)  # red hats in a cell of each type
    for cells in range(13):
        every = [comp for comp in product(range(cells + 1), repeat=kinds) if sum(comp) == cells]
        want = [(comp, sum(map(mul, comp, reds))) for comp in sorted(every, reverse=True)]
        assert list(analysis._compositions(cells, kinds)) == want


@pytest.mark.parametrize("arity", [1, 2])
def test_covers_hold_every_type_a_red_count_allows(arity):
    """Each cover has c red hats, and together they hold every type that
    some composition with c red hats holds: one cover for single players,
    and for pairs one when 4 <= c <= 2 * cells - 4, at most two otherwise."""
    for cells in range(1, 13):
        comps = list(analysis._compositions(cells, 1 << arity))
        for c in range(arity * cells + 1):
            covers = analysis._covers(cells, arity, c)
            assert all((cover, c) in comps for cover in covers)
            held = {kind for cover in covers for kind, count in enumerate(cover) if count}
            allowed = {
                kind
                for comp, reds in comps
                if reds == c
                for kind, count in enumerate(comp)
                if count
            }
            assert held == allowed
            one = arity == 1 or c in (0, 2 * cells) or 4 <= c <= 2 * cells - 4
            assert len(covers) == (1 if one else 2)
