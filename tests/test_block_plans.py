"""The composite's block-threshold rule on hand-built plans with k >= 3 blocks.

Default plans first use k = 3 at n = 34; these smaller hand-built plans
check the modular threshold offset per player and against the bit path.
"""

import random

import pytest

from hatguess import (
    Color,
    HatDistribution,
    PartitionPlan,
    StrategyProfile,
    canonical_pairing,
    evaluate,
    exhaustive_worst_case,
    guarantee_bound,
)
from hatguess.strategies import BlockThresholdRule

# (n, k) -> (exact worst loss, structural bound); equal-sized blocks
PINNED = {(12, 3): (5, 6), (16, 4): (7, 11), (18, 3): (6, 7)}


def equal_plan(n, k):
    size = n // k
    blocks = tuple(tuple(range(start, start + size)) for start in range(1, n + 1, size))
    return PartitionPlan(blocks)


@pytest.fixture
def plan_composite():
    """The composite's rule played on a hand-built plan instead of the default one."""

    def build(n, k):
        plan = equal_plan(n, k)
        rule = BlockThresholdRule(canonical_pairing(n), plan.blocks, plan)
        strategy = StrategyProfile(n, rule, "composite")
        assert strategy.guess_rule.plan is plan
        return plan, strategy

    return build


def per_player_mask(strategy, n, red_mask):
    record = evaluate(strategy, HatDistribution(n, red_mask))
    return sum(1 << pos for pos, g in enumerate(record.guesses) if g is Color.RED)


def test_per_player_matches_bulk_everywhere_at_k3(plan_composite):
    _, strategy = plan_composite(12, 3)
    for red_mask in range(1 << 12):
        assert strategy.bulk(red_mask) == per_player_mask(strategy, 12, red_mask), red_mask


@pytest.mark.parametrize("n,k", [(16, 4), (18, 3)])
def test_per_player_matches_bulk_sampled(plan_composite, n, k):
    _, strategy = plan_composite(n, k)
    rng = random.Random(n * 100 + k)
    for _ in range(400):
        red_mask = rng.getrandbits(n)
        assert strategy.bulk(red_mask) == per_player_mask(strategy, n, red_mask), red_mask


@pytest.mark.parametrize("n,k", sorted(PINNED))
def test_exhaustive_worst_loss_within_structural_bound(plan_composite, n, k):
    plan, strategy = plan_composite(n, k)
    report = exhaustive_worst_case(strategy, n)
    structural = guarantee_bound(n, plan).structural_loss
    assert report.worst_loss <= structural
    assert (report.worst_loss, structural) == PINNED[(n, k)]


# (n, k) -> (exact worst loss, structural bound); equal-sized blocks, certified
# by the orbit sweep
FACTORED_PINNED = {(20, 5): (9, 18), (24, 4): (9, 12), (24, 6): (11, 27)}


@pytest.mark.parametrize("n,k", sorted(FACTORED_PINNED))
def test_exact_certificates_for_larger_k3_plus_plans(plan_composite, n, k):
    plan, strategy = plan_composite(n, k)
    report = exhaustive_worst_case(strategy, n)
    structural = guarantee_bound(n, plan).structural_loss
    assert report.evaluated == 1 << n
    assert report.total_correct == n << (n - 1)  # the averaging identity
    assert (report.worst_loss, structural) == FACTORED_PINNED[(n, k)]
