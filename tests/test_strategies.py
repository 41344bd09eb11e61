"""Strategy constructions: pairing, majority, block thresholds, composite."""

import pickle
import random

import pytest

from hatguess import (
    Color,
    ContractError,
    HatDistribution,
    Pairing,
    PartialStrategyParams,
    StrategyProfile,
    VisibleView,
    canonical_pairing,
    composite_strategy,
    compute_thresholds,
    evaluate,
    guarantee_bound,
    lemma_table_bound,
    majority_strategy,
    make_partition,
    pairing_strategy,
    partial_profile,
)
from hatguess import strategies
from hatguess.core import full_mask, mask_of
from hatguess.strategies import BlockThresholdRule
from test_factored_sweep import assert_orbit_exact, chain_pairing, equal_plan, shuffled_plan


def block_params(size, blue_max, red_min):
    members = frozenset(range(1, size + 1))
    return PartialStrategyParams(members, blue_max, red_min)


# ----------------------------------------------------------------------
# pairing
# ----------------------------------------------------------------------

def test_canonical_pairing_small():
    assert canonical_pairing(2).pairs == ((1, 2),)
    assert canonical_pairing(6).pairs == ((1, 2), (3, 4), (5, 6))


def test_canonical_pairing_covers():
    p = canonical_pairing(4)
    flat = [i for pair in p.pairs for i in pair]
    assert sorted(flat) == [1, 2, 3, 4]
    assert len(set(flat)) == 4


@pytest.mark.parametrize("n", [0, -2, 3, 7])
def test_canonical_pairing_rejects(n):
    with pytest.raises(ContractError):
        canonical_pairing(n)


def test_pairing_validation():
    with pytest.raises(ContractError):
        Pairing(((1, 1),))
    with pytest.raises(ContractError):
        Pairing(((1, 2), (2, 3)))
    with pytest.raises(ContractError):  # player 3 without their partner 4
        PartialStrategyParams(frozenset({1, 2, 3}), 0, 2)


def test_pairing_strategy_same_colors():
    record = evaluate(pairing_strategy(canonical_pairing(2)), HatDistribution.from_text("RR"))
    assert record.guesses == (Color.RED, Color.BLUE)
    assert record.correct_count == 1


def test_pairing_scores_exactly_half_n8():
    strategy = pairing_strategy(canonical_pairing(8))
    for mask in range(1 << 8):
        assert evaluate(strategy, HatDistribution(8, mask)).correct_count == 4


def test_pairing_strategy_needs_full_cover():
    with pytest.raises(ContractError):
        pairing_strategy(Pairing(((2, 3),)))


# ----------------------------------------------------------------------
# majority
# ----------------------------------------------------------------------

def test_majority_monochromatic():
    record = evaluate(majority_strategy(6), HatDistribution.from_text("RRRRRR"))
    assert record.correct_count == 6


def test_majority_tie_break_matters():
    # on RRB the two red wearers see one hat of each color
    d = HatDistribution.from_text("RRB")
    assert evaluate(majority_strategy(3, Color.RED), d).correct_count == 2
    assert evaluate(majority_strategy(3, Color.BLUE), d).correct_count == 0


def test_majority_rejects_single_player():
    with pytest.raises(ContractError):
        majority_strategy(1)


def test_majority_off_balance_scores_target_even_n():
    # off balance the majority strategy hits max{r,b} exactly; balanced it gets 0
    for n in (4, 6, 8):
        strategy = majority_strategy(n)
        for mask in range(1 << n):
            d = HatDistribution(n, mask)
            cor = evaluate(strategy, d).correct_count
            r = d.red_count
            if r != n - r:
                assert cor == max(r, n - r)
            else:
                assert cor == 0


def test_majority_off_balance_scores_target_to_14():
    # same property up to n = 14, via the bulk path (equivalence is tested below)
    for n in (10, 12, 14):
        bulk = majority_strategy(n).bulk
        full = full_mask(n)
        for red in range(1 << n):
            cor = (~(bulk(red) ^ red) & full).bit_count()
            r = red.bit_count()
            assert cor == (max(r, n - r) if r != n - r else 0)


# ----------------------------------------------------------------------
# partial block rule
# ----------------------------------------------------------------------

def test_partial_params_validation():
    with pytest.raises(ContractError):
        block_params(4, 2, 3)  # blue_max not below |T|/2
    with pytest.raises(ContractError):
        block_params(4, 0, 1)  # red_min below |T|/2
    with pytest.raises(ContractError):
        block_params(4, 1, 2)  # thresholds closer than 2
    block_params(4, -2, 2)  # negative blue_max is fine: blue call unreachable


def test_partial_params_pairing_must_match():
    members = frozenset({2, 3, 4, 5})  # four players, but no canonical pair (2i - 1, 2i) whole
    with pytest.raises(ContractError):
        PartialStrategyParams(members, 0, 3)


def in_block_record(params, text):
    d = HatDistribution.from_text(text)
    rule = partial_profile(params, d.n).guess_rule
    guesses = {i: rule(i, VisibleView(d, i)) for i in sorted(params.members)}
    correct = [i for i, g in guesses.items() if g is d.color_of(i)]
    return guesses, correct


def test_partial_rule_failing_red_case():
    # three red hats hit red_min exactly: the blue wearer miscalls red,
    # red wearers fall back to the pairing
    params = block_params(4, 0, 3)
    guesses, correct = in_block_record(params, "RRRB")
    assert [guesses[i] for i in (1, 2, 3, 4)] == [
        Color.RED, Color.BLUE, Color.BLUE, Color.RED,
    ]
    assert correct == [1]
    assert lemma_table_bound(HatDistribution.from_text("RRRB"), params) == 1


def test_partial_rule_all_red():
    params = block_params(4, 0, 3)
    guesses, correct = in_block_record(params, "RRRR")
    assert all(g is Color.RED for g in guesses.values())
    assert len(correct) == 4


def test_partial_rule_middle_plays_pairing():
    params = block_params(4, 0, 3)
    guesses, correct = in_block_record(params, "RRBB")
    assert len(correct) == 2  # exactly one per pair


def test_partial_rule_rejects_outsider():
    # a block rule whose pairing covers players 1..4 only: player 5 has no partner
    rule = BlockThresholdRule(canonical_pairing(4), (frozenset(range(1, 5)),), (((0, 3),),))
    d = HatDistribution.from_text("RRBBRB")
    with pytest.raises(ContractError):
        rule(5, VisibleView(d, 5))


@pytest.mark.parametrize(
    "red_in_block,blue_max,red_min,size,expected",
    [
        (4, 0, 3, 4, 4),  # above red_min: everyone right
        (3, 0, 3, 4, 1),  # at red_min: red_min - size/2
        (1, 0, 3, 4, 1),  # at blue_max + 1: size/2 - blue_max - 1
        (2, 0, 3, 4, 2),  # strictly between: size/2
        (0, 0, 3, 4, 4),  # at/below blue_max: everyone right
        (1, -2, 2, 4, 2),  # negative blue_max keeps the middle wide
    ],
)
def test_lemma_table_cases(red_in_block, blue_max, red_min, size, expected):
    params = block_params(size, blue_max, red_min)
    text = "R" * red_in_block + "B" * (size - red_in_block)
    assert lemma_table_bound(HatDistribution.from_text(text), params) == expected


@pytest.mark.parametrize("size", [2, 4, 10])
def test_lemma_table_is_sound(size):
    # simulated in-block score never drops below the table value; the two
    # all-call cases are exact
    for blue_max in range(-2, size // 2):
        for red_min in range(size // 2, size + 1):
            if blue_max + 2 > red_min:
                continue
            params = block_params(size, blue_max, red_min)
            rule = partial_profile(params, size).guess_rule
            for mask in range(1 << size):
                d = HatDistribution(size, mask)
                cor = sum(
                    rule(i, VisibleView(d, i)) is d.color_of(i)
                    for i in range(1, size + 1)
                )
                bound = lemma_table_bound(d, params)
                assert cor >= bound
                c = d.red_count
                if c > red_min or c <= blue_max:
                    assert cor == bound


# ----------------------------------------------------------------------
# partition plans and thresholds
# ----------------------------------------------------------------------

def test_make_partition_examples():
    plan = make_partition(16)
    assert (plan.k, plan.large_blocks, plan.block_sizes) == (2, 2, (8, 8))
    plan = make_partition(64)
    assert (plan.k, plan.large_blocks, plan.block_sizes) == (3, 2, (22, 22, 20))
    plan = make_partition(6)
    assert (plan.k, plan.large_blocks, plan.block_sizes) == (2, 1, (4, 2))
    plan = make_partition(4)
    assert (plan.k, plan.block_sizes) == (2, (2, 2))


def test_make_partition_rejects():
    with pytest.raises(ContractError):
        make_partition(2)
    with pytest.raises(ContractError):
        make_partition(7)


def cube_ceil_blocks(n):
    t = 1
    while t**3 * 4 < n:
        t += 1
    return max(2, t)


def test_make_partition_invariants_scan():
    for n in range(4, 513, 2):
        plan = make_partition(n)
        assert plan.k == cube_ceil_blocks(n)
        sizes = plan.block_sizes
        assert all(s >= 2 and s % 2 == 0 for s in sizes)
        assert sum(sizes) == n
        big, small = sizes[0], sizes[-1]
        assert plan.large_blocks * big + (plan.k - plan.large_blocks) * small == n
        # consecutive ranges starting at odd indices align with canonical pairs
        flat = [p for block in plan.blocks for p in block]
        assert flat == list(range(1, n + 1))
        assert all(block[0] % 2 == 1 for block in plan.blocks)


def test_plan_mode_rule_plays_only_its_plans_blocks():
    plan = make_partition(12)  # blocks 1..6 and 7..12
    with pytest.raises(ContractError, match="plan's own blocks"):
        BlockThresholdRule(canonical_pairing(12), ((1, 2, 3, 4), tuple(range(5, 13))), plan)
    assert BlockThresholdRule(canonical_pairing(12), plan.blocks, plan).plan is plan


def test_partition_plan_rejects_malformed():
    from hatguess import PartitionPlan

    good = make_partition(8)
    with pytest.raises(ContractError):  # k = 1
        PartitionPlan((tuple(range(1, 9)),))
    with pytest.raises(ContractError):  # odd block size
        PartitionPlan(((1, 2, 3), (4, 5, 6, 7, 8)))
    with pytest.raises(ContractError):  # gap in the cover: players 5 and 6
        PartitionPlan(((1, 2, 3, 4), (7, 8)))
    with pytest.raises(ContractError, match="overlap"):  # player 4 twice, player 8 nowhere
        PartitionPlan(((1, 2, 3, 4), (4, 5, 6, 7)))
    split = PartitionPlan(((1, 2, 3, 6), (4, 5, 7, 8)))
    with pytest.raises(ContractError, match="straddles"):  # block boundary splits pair (3, 4)
        BlockThresholdRule(canonical_pairing(8), split.blocks, split)


def test_plan_and_bound_build_no_masks(monkeypatch):
    # a plan is only its blocks: the rule that plays it owns the masks
    def refuse(players):
        raise AssertionError("mask_of called")

    monkeypatch.setattr(strategies, "mask_of", refuse)
    plan = make_partition(4096)
    assert plan.block_sizes == (374,) * 2 + (372,) * 9
    assert guarantee_bound(4096, plan).structural_loss == 187 + 10**2


def test_plan_json_shape():
    assert make_partition(6).to_json_dict() == {
        "n": 6,
        "k": 2,
        "l": 1,
        "block_sizes": [4, 2],
        "blocks": [[1, 2, 3, 4], [5, 6]],
    }


def test_compute_thresholds_examples():
    plan = make_partition(16)
    assert compute_thresholds(3, plan, 1) == (1, 4)  # 3 + 4 = 7, odd, matches block 1
    assert compute_thresholds(5, plan, 2) == (2, 5)  # 4 fails the parity, 5 passes


def test_compute_thresholds_gap_is_k_plus_one():
    for n in (6, 10, 16, 64, 150):
        plan = make_partition(n)
        for i in range(1, plan.k + 1):
            for outside in range(0, n - len(plan.blocks[i - 1]) + 1):
                blue_max, red_min = compute_thresholds(outside, plan, i)
                assert red_min - blue_max == plan.k + 1
                assert red_min >= len(plan.blocks[i - 1]) // 2
                assert (outside + red_min) % plan.k == i % plan.k


def test_compute_thresholds_block_index_range():
    plan = make_partition(8)
    with pytest.raises(ContractError):
        compute_thresholds(0, plan, 0)
    with pytest.raises(ContractError):
        compute_thresholds(0, plan, 3)
    with pytest.raises(ContractError):
        compute_thresholds(-1, plan, 1)


def plan_rules():
    for n in (6, 34, 100, 256, 1000, 4096):
        plan = make_partition(n)
        yield plan, BlockThresholdRule(canonical_pairing(n), plan.blocks, plan)
    for n, k in [(12, 3), (16, 4), (18, 3), (12, 6), (16, 2)]:
        plan = equal_plan(n, k)
        yield plan, BlockThresholdRule(canonical_pairing(n), plan.blocks, plan)
    for n, k, seed in [(8, 2, 1), (12, 3, 2), (12, 2, 3)]:
        plan, pairing = shuffled_plan(n, k, seed)
        yield plan, BlockThresholdRule(pairing, plan.blocks, plan)


def test_plan_tables_are_compute_thresholds_at_every_outside_count():
    # both paths read the tables, so the rule itself never rechecks them against compute_thresholds
    for plan, rule in plan_rules():
        for i, (_, table) in enumerate(rule._blocks, start=1):
            for o in range(plan.n - len(plan.blocks[i - 1]) + 1):
                assert table[o % len(table)] == compute_thresholds(o, plan, i), (plan.n, i, o)


def test_thresholds_agree_across_observers():
    # every member of a block counts the same outside hats in their own view,
    # so derives the same thresholds
    rng = random.Random(1)
    plan = make_partition(12)
    for _ in range(50):
        d = HatDistribution(12, rng.getrandbits(12))
        for i in range(1, plan.k + 1):
            block = plan.blocks[i - 1]
            outside_mask = full_mask(12) ^ mask_of(block)
            expected = compute_thresholds(d.count_red(outside_mask), plan, i)
            for member in block:
                seen = VisibleView(d, member).count_red(outside_mask)
                assert compute_thresholds(seen, plan, i) == expected


# ----------------------------------------------------------------------
# composite strategy
# ----------------------------------------------------------------------

def test_composite_rejects_tiny():
    with pytest.raises(ContractError):
        composite_strategy(1)


def test_composite_n2_acts_as_pairing():
    strategy = composite_strategy(2)
    assert strategy.name == "composite"
    for mask in range(4):
        assert evaluate(strategy, HatDistribution(2, mask)).correct_count == 1


def test_composite_monochromatic_n6():
    record = evaluate(composite_strategy(6), HatDistribution.from_text("RRRRRR"))
    assert record.correct_count == 5
    assert record.correct_count >= 6 - 3  # structural bound: 4/2 + 1


def test_composite_worst_loss_within_structural_n8():
    strategy = composite_strategy(8)
    bound = guarantee_bound(8, make_partition(8))
    worst = -1
    for mask in range(1 << 8):
        d = HatDistribution(8, mask)
        cor = evaluate(strategy, d).correct_count
        worst = max(worst, max(d.red_count, d.blue_count) - cor)
    assert worst <= bound.structural_loss == 3


def test_composite_odd_spectator():
    # player n never influences the others and plays majority-of-view
    strategy = composite_strategy(7)
    d = HatDistribution.from_text("RRBBRRB")
    flipped = d.flip(7)
    for i in range(1, 7):
        assert strategy.guess(i, d) is strategy.guess(i, flipped)
    # 4 reds visible among 6 -> majority says red
    assert strategy.guess(7, d) is Color.RED
    # exactly balanced view ties to red
    assert strategy.guess(7, HatDistribution.from_text("RRRBBBB")) is Color.RED


def test_composite_no_peek_exhaustive_n9():
    from hatguess import verify_no_peek

    strategy = composite_strategy(9)
    for mask in range(1 << 9):
        assert verify_no_peek(strategy, HatDistribution(9, mask)) == []


# ----------------------------------------------------------------------
# guarantee bounds
# ----------------------------------------------------------------------

def test_guarantee_bound_values():
    bound = guarantee_bound(16, make_partition(16))
    assert bound.structural_loss == 5
    assert bound.theorem_loss_even == pytest.approx(8.6195, abs=1e-4)
    bound = guarantee_bound(64, make_partition(64))
    assert bound.structural_loss == 15
    assert bound.theorem_loss_even == pytest.approx(20.2, abs=1e-9)
    assert bound.theorem_loss_general == pytest.approx(21.2, abs=1e-9)


def test_guarantee_bound_without_plan():
    bound = guarantee_bound(7)
    assert bound.structural_loss is None
    assert bound.theorem_loss_general == pytest.approx(1.2 * 7 ** (2 / 3) + 2)


def test_structural_below_theorem_for_all_even_n():
    for n in range(6, 4097, 2):
        bound = guarantee_bound(n, make_partition(n))
        assert bound.structural_loss <= bound.theorem_loss_even


def test_guarantee_bound_plan_mismatch():
    with pytest.raises(ContractError):
        guarantee_bound(8, make_partition(6))


# ----------------------------------------------------------------------
# bulk fast path and pickling
# ----------------------------------------------------------------------

def all_strategies(n):
    out = []
    if n % 2 == 0:
        out.append(pairing_strategy(canonical_pairing(n)))
        size = n // 2 if (n // 2) % 2 == 0 else n // 2 + 1
        if 2 <= size < n:
            params = block_params(size, size // 2 - 2, size // 2 + 1)
            out.append(partial_profile(params, n))
    out.append(majority_strategy(n, Color.RED))
    out.append(majority_strategy(n, Color.BLUE))
    out.append(composite_strategy(n))
    return out


def guesses_to_mask(record):
    mask = 0
    for pos, g in enumerate(record.guesses):
        if g is Color.RED:
            mask |= 1 << pos
    return mask


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_bulk_matches_per_player_exhaustive(n):
    for strategy in all_strategies(n):
        assert strategy.bulk is not None
        for mask in range(1 << n):
            record = evaluate(strategy, HatDistribution(n, mask))
            assert strategy.bulk(mask) == guesses_to_mask(record), (strategy.name, n, mask)


@pytest.mark.parametrize("n", [12, 17, 18, 100, 999])
def test_bulk_matches_per_player_sampled(n):
    rng = random.Random(n)
    for strategy in all_strategies(n):
        for _ in range(25):
            mask = rng.getrandbits(n) & full_mask(n)
            record = evaluate(strategy, HatDistribution(n, mask))
            assert strategy.bulk(mask) == guesses_to_mask(record), (strategy.name, n, mask)


def threshold_boundary_masks(n, blocks, thresholds_for, period, rng):
    """Masks of players 1..n putting each block's red count c at blue_max,
    blue_max+1, red_min-1, red_min and red_min+1, for every residue of the
    outside red count mod ``period``; the other hats are random."""
    for i, block in enumerate(blocks, start=1):
        inside = set(block)
        outside = [p for p in range(1, n + 1) if p not in inside]
        for residue in range(period):
            o = residue + period * rng.randrange((len(outside) - residue) // period + 1)
            blue_max, red_min = thresholds_for(o, i)
            for c in sorted({blue_max, blue_max + 1, red_min - 1, red_min, red_min + 1}):
                if 0 <= c <= len(block):
                    yield mask_of(rng.sample(block, c)) | mask_of(rng.sample(outside, o))


def plan_boundary_masks(plan, rng):
    return threshold_boundary_masks(
        plan.n, plan.blocks, lambda o, i: compute_thresholds(o, plan, i), plan.k, rng
    )


def assert_bulk_matches_per_player(strategy, masks):
    for mask in masks:
        record = evaluate(strategy, HatDistribution(strategy.n, mask))
        assert strategy.bulk(mask) == guesses_to_mask(record), (strategy.name, strategy.n, mask)


@pytest.mark.parametrize("n", [34, 100, 256, 1000, 35, 999])
def test_bulk_matches_per_player_at_plan_thresholds(n):
    strategy = composite_strategy(n)
    rule = strategy.guess_rule
    plan = rule.plan if n % 2 == 0 else rule.inner.plan  # odd n: the spectator's inner plan
    assert plan.k >= 3
    rng = random.Random(n)
    spectator_hat = (n % 2) << (n - 1)
    masks = (m | spectator_hat * rng.getrandbits(1) for m in plan_boundary_masks(plan, rng))
    assert_bulk_matches_per_player(strategy, masks)


def test_partial_bulk_matches_per_player_at_fixed_thresholds():
    params = block_params(12, 2, 7)
    strategy = partial_profile(params, 24)
    masks = threshold_boundary_masks(
        24, (sorted(params.members),), lambda o, i: (2, 7), 1, random.Random(24)
    )
    assert_bulk_matches_per_player(strategy, masks)


@pytest.mark.parametrize("blue_max, red_min", [(1, 3), (2, 3), (3, 3), (4, 2), (-1, 0)])
def test_bulk_matches_per_player_for_any_fixed_thresholds(blue_max, red_min):
    # BlockThresholdRule itself does not require blue_max + 2 <= red_min;
    # closer thresholds reach the bulk path's split cases
    rule = BlockThresholdRule(canonical_pairing(8), (range(1, 7),), (((blue_max, red_min),),))
    strategy = StrategyProfile(8, rule, "partial")
    assert_bulk_matches_per_player(strategy, range(1 << 8))


def test_explicit_tables_no_plan_makes(monkeypatch):
    # periods 2 and 3, and the entry (2, 3) is one apart: no plan builds these tables
    rule = BlockThresholdRule(
        canonical_pairing(12),
        (range(1, 7), range(7, 13)),
        (((1, 4), (0, 3)), ((2, 3), (0, 4), (1, 5))),
    )
    assert tuple(part.modulus for part in rule.parts) == (2, 3)
    strategy = StrategyProfile(12, rule, "tables")
    assert_orbit_exact(monkeypatch, strategy, 12)
    assert_bulk_matches_per_player(strategy, range(1 << 12))


@pytest.mark.parametrize(
    "tables",
    [(((0, 3),),), (((0, 3),), ((0, 3),), ((0, 3),)), (((0, 3),), ())],
    ids=["too-few", "too-many", "empty"],
)
def test_block_rule_needs_one_nonempty_table_per_block(tables):
    with pytest.raises(ContractError, match="one non-empty table"):
        BlockThresholdRule(canonical_pairing(8), ((1, 2, 3, 4), (5, 6, 7, 8)), tables)


def test_block_rule_rejects_overlapping_blocks():
    with pytest.raises(ContractError, match="overlap"):
        BlockThresholdRule(canonical_pairing(8), ((1, 2, 3, 4), (3, 4, 5, 6)), (((0, 3),),) * 2)


def test_block_rule_rejects_a_block_outside_the_pairing():
    with pytest.raises(ContractError, match="pairing's players"):
        BlockThresholdRule(canonical_pairing(8), ((1, 2, 3, 4), (9, 10)), (((0, 3),), ((-1, 1),)))


def reversed_pairing(n):
    """(2,1), (4,3), ..., (n,n-1): every partner distance is -1."""
    return Pairing(tuple((i + 1, i) for i in range(1, n, 2)))


def shuffled_pairing(n):
    players = list(range(1, n + 1))
    random.Random(n).shuffle(players)
    return Pairing(tuple(zip(players[::2], players[1::2])))


@pytest.mark.parametrize(
    "make_pairing", [canonical_pairing, reversed_pairing, chain_pairing, shuffled_pairing]
)
def test_pairing_bulk_matches_per_player_at_scale(make_pairing):
    # the bulk path groups pairs by partner distance y - x, of either sign
    n = 1000
    rng = random.Random(n)
    strategy = pairing_strategy(make_pairing(n))
    assert_bulk_matches_per_player(strategy, (rng.getrandbits(n) for _ in range(64)))


def test_offset_block_bulk_matches_per_player():
    # a block that does not start at player 1, above two unblocked pairs
    members = frozenset({5, 6, 7, 8})
    params = PartialStrategyParams(members, 0, 3)
    strategy = partial_profile(params, 8)
    for mask in range(1 << 8):
        record = evaluate(strategy, HatDistribution(8, mask))
        assert strategy.bulk(mask) == guesses_to_mask(record), bin(mask)


def test_offset_block_rule_bulk():
    # the bare block rule's bulk path must set bits at the offset positions
    members = frozenset({5, 6, 7, 8})
    params = PartialStrategyParams(members, 0, 3)
    rule = partial_profile(params, 8).guess_rule
    for mask in range(1 << 8):
        d = HatDistribution(8, mask)
        expected = 0
        for i in sorted(members):
            if rule(i, VisibleView(d, i)) is Color.RED:
                expected |= 1 << (i - 1)
        assert rule.bulk_guesses(mask) & mask_of(members) == expected, bin(mask)


def test_builtin_rules_pickle():
    for strategy in all_strategies(10):
        clone = pickle.loads(pickle.dumps(strategy))
        d = HatDistribution(10, 0b1011001110)
        assert evaluate(clone, d) == evaluate(strategy, d)
