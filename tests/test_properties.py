"""Property tests (Hypothesis, MacIver et al., JOSS 2019) on random valid
plans, with k >= 2 blocks of large/small sizes and players shuffled across
blocks, and on their odd-n spectator: the bulk bit path of the
block-threshold rule equals the per-player path, and neither path lets a
player's guess depend on their own hat."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hatguess import (  # noqa: E402
    Color,
    HatDistribution,
    Pairing,
    PartitionPlan,
    StrategyProfile,
    evaluate,
    verify_no_peek,
)
from hatguess.core import mask_of  # noqa: E402
from hatguess.strategies import BlockThresholdRule, SpectatorCompositeRule  # noqa: E402

MAX_N = 60


@st.composite
def plans_and_masks(draw):
    """A PartitionPlan built directly (not by make_partition) on a random
    order of the players, and a mask of n+1 hats whose red count in each
    block is drawn first, so every lemma case is reachable."""
    k = draw(st.integers(2, 8) | st.integers(9, MAX_N // 2))
    half_small = draw(st.integers(1, MAX_N // (2 * k)))
    small = 2 * half_small
    large_blocks = draw(st.integers(1, k))
    big = small + 2
    if not draw(st.booleans()) or large_blocks * big + (k - large_blocks) * small > MAX_N:
        big = small
    sizes = [big] * large_blocks + [small] * (k - large_blocks)
    n = sum(sizes)
    order = draw(st.permutations(range(1, n + 1)))
    blocks, pairs, start = [], [], 0
    for size in sizes:
        block = order[start:start + size]
        start += size
        blocks.append(tuple(block))
        pairs.extend((block[j], block[j + 1]) for j in range(0, size, 2))
    plan = PartitionPlan(n, k, large_blocks, tuple(blocks), Pairing(tuple(pairs)))
    mask = draw(st.integers(0, 1)) << n
    for block in blocks:
        reds = draw(st.integers(0, len(block)))
        mask |= mask_of(draw(st.permutations(block))[:reds])
    return plan, mask


def guesses_mask(strategy, red_mask):
    record = evaluate(strategy, HatDistribution(strategy.n, red_mask))
    return mask_of(i for i, g in enumerate(record.guesses, start=1) if g is Color.RED)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(plans_and_masks())
def test_bulk_matches_per_player_on_random_plans(plan_and_mask):
    plan, mask = plan_and_mask
    n = plan.n
    rule = BlockThresholdRule(plan.pairing, plan.blocks, plan)
    even = StrategyProfile(n, rule, "composite")
    odd = StrategyProfile(n + 1, SpectatorCompositeRule(n + 1, rule), "composite")
    inner = mask & ((1 << n) - 1)
    assert even.bulk(inner) == guesses_mask(even, inner)
    assert odd.bulk(mask) == guesses_mask(odd, mask)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(plans_and_masks())
def test_no_player_reads_their_own_hat_on_random_plans(plan_and_mask):
    """The orbit sweep joins the spectator as a factor (1 + y) on this."""
    plan, mask = plan_and_mask
    n = plan.n
    rule = BlockThresholdRule(plan.pairing, plan.blocks, plan)
    odd = StrategyProfile(n + 1, SpectatorCompositeRule(n + 1, rule), "composite")
    guesses = odd.bulk(mask)
    for p in range(n + 1):
        assert (odd.bulk(mask ^ 1 << p) ^ guesses) >> p & 1 == 0
    assert verify_no_peek(odd, HatDistribution(n + 1, mask)) == []
