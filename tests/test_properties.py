"""Property tests (Hypothesis, MacIver et al., JOSS 2019) on random valid
plans, with k >= 2 blocks of large/small sizes and players shuffled across
blocks, and on their odd-n spectator: the bulk bit path of the
block-threshold rule equals the per-player path, neither path lets a
player's guess depend on their own hat, and the orbit sweep equals the bit
sweep where parts and cells interleave.  Also: sweep pieces merge the same
under any bracketing, and every CLI command's JSON output round-trips."""

import contextlib
import io
import json

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
    analysis,
    canonical_pairing,
    cli,
    composite_strategy,
    evaluate,
    exhaustive_worst_case,
    majority_strategy,
    pairing_strategy,
    verify_no_peek,
)
from hatguess.core import mask_of  # noqa: E402
from hatguess.strategies import (  # noqa: E402
    BlockThresholdRule,
    SpectatorCompositeRule,
)
from test_factored_sweep import SpectatorAt  # noqa: E402

MAX_N = 60


@st.composite
def plans_and_masks(draw):
    """A PartitionPlan built directly (not by make_partition) on a random
    order of the players, a pairing of the players inside its blocks, and a
    mask of n+1 hats whose red count in each block is drawn first, so every
    lemma case is reachable."""
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
    plan = PartitionPlan(tuple(blocks))
    mask = draw(st.integers(0, 1)) << n
    for block in blocks:
        reds = draw(st.integers(0, len(block)))
        mask |= mask_of(draw(st.permutations(block))[:reds])
    return plan, Pairing(tuple(pairs)), mask


def guesses_mask(strategy, red_mask):
    record = evaluate(strategy, HatDistribution(strategy.n, red_mask))
    return mask_of(i for i, g in enumerate(record.guesses, start=1) if g is Color.RED)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(plans_and_masks())
def test_bulk_matches_per_player_on_random_plans(plan_and_mask):
    plan, pairing, mask = plan_and_mask
    n = plan.n
    rule = BlockThresholdRule(pairing, plan.blocks, plan)
    even = StrategyProfile(n, rule, "composite")
    odd = StrategyProfile(n + 1, SpectatorCompositeRule(n + 1, rule), "composite")
    inner = mask & ((1 << n) - 1)
    assert even.bulk(inner) == guesses_mask(even, inner)
    assert odd.bulk(mask) == guesses_mask(odd, mask)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(plans_and_masks())
def test_no_player_reads_their_own_hat_on_random_plans(plan_and_mask):
    """The orbit sweep joins the spectator as a factor (1 + y) on this."""
    plan, pairing, mask = plan_and_mask
    n = plan.n
    rule = BlockThresholdRule(pairing, plan.blocks, plan)
    odd = StrategyProfile(n + 1, SpectatorCompositeRule(n + 1, rule), "composite")
    guesses = odd.bulk(mask)
    for p in range(n + 1):
        assert (odd.bulk(mask ^ 1 << p) ^ guesses) >> p & 1 == 0
    assert verify_no_peek(odd, HatDistribution(n + 1, mask)) == []


@st.composite
def scattered_rules(draw):
    """A composite rule on a random plan whose pairs and blocks are scattered
    over the players, or the pairing of those random pairs, with or without
    the odd-n spectator, who sits at a random player: at most 12 players in
    all."""
    spectator = draw(st.booleans())
    k = draw(st.integers(2, 3))
    small = draw(st.sampled_from([2, 4]))
    big = draw(st.sampled_from([small, small + 2]))
    large_blocks = draw(st.integers(1, k))
    sizes = [big] * large_blocks + [small] * (k - large_blocks)
    hypothesis.assume(sum(sizes) + spectator <= 12)
    n = sum(sizes)
    order = draw(st.permutations(range(1, n + 1)))
    pairs = tuple(tuple(order[j : j + 2]) for j in range(0, n, 2))
    if draw(st.booleans()):
        rule = BlockThresholdRule(Pairing(pairs), (), ())
    else:
        blocks, start = [], 0
        for size in sizes:
            blocks.append(order[start : start + size])
            start += size
        plan = PartitionPlan(tuple(map(tuple, blocks)))
        rule = BlockThresholdRule(Pairing(pairs), plan.blocks, plan)
    if spectator:
        seat = draw(st.integers(1, n + 1))
        moved = SpectatorAt(SpectatorCompositeRule(n + 1, rule), n + 1, seat)
        return StrategyProfile(n + 1, moved, "composite")
    return StrategyProfile(n, rule, "composite")


def refuse_bit_sweep(payload):
    raise AssertionError("the bit sweep ran where the orbit sweep should")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(scattered_rules())
def test_orbit_sweep_equals_the_bit_sweep_on_scattered_layouts(strategy):
    """The whole report, the earliest witness included."""
    n = strategy.n
    want = analysis._sweep_chunk((strategy, n, 0, 1 << n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_sweep_chunk", refuse_bit_sweep)
        report = exhaustive_worst_case(strategy, n)
    assert report == analysis._report(strategy, "exhaustive", want)


@st.composite
def chunked_sweeps(draw):
    """A built-in strategy at n <= 10 and its bit sweep cut into pieces at
    random points of [0, 2^n), empty pieces included."""
    name = draw(st.sampled_from(["pairing", "majority", "composite"]))
    n = draw(st.integers(2, 10))
    if name == "pairing":
        strategy = pairing_strategy(canonical_pairing(n - n % 2))
    elif name == "majority":
        strategy = majority_strategy(n)
    else:
        strategy = composite_strategy(n)
    n = strategy.n
    cuts = sorted(draw(st.lists(st.integers(0, 1 << n), max_size=6)))
    ends = [0, *cuts, 1 << n]
    pieces = [analysis._sweep_chunk((strategy, n, lo, hi)) for lo, hi in zip(ends, ends[1:])]
    return strategy, pieces


def merged(pieces, data):
    """The pieces merged in order under a bracketing drawn from ``data``."""
    if len(pieces) == 1:
        return pieces[0]
    cut = data.draw(st.integers(1, len(pieces) - 1))
    return analysis._merge_partials(merged(pieces[:cut], data), merged(pieces[cut:], data))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(chunked_sweeps(), st.data())
def test_merge_partials_is_associative_under_any_chunking(strategy_and_pieces, data):
    strategy, pieces = strategy_and_pieces
    n = strategy.n
    assert merged(pieces, data) == analysis._sweep_chunk((strategy, n, 0, 1 << n))


@st.composite
def cli_argvs(draw):
    """A small argv of eval, sweep, sample, plan, bounds or identity without
    --format: n is even three times in four, and a partial block's
    thresholds are valid, so most draws run and some exit 2."""
    command = draw(st.sampled_from(["eval", "sweep", "sample", "plan", "bounds", "identity"]))
    top = {"sweep": 10, "eval": 24, "sample": 24}.get(command, 40)
    n = 2 * draw(st.integers(1, top // 2)) - draw(st.sampled_from([0, 0, 0, 1]))
    if command in ("plan", "bounds", "identity"):
        return [command, "--n", str(n)]
    argv = [command, "--strategy", draw(st.sampled_from(cli.STRATEGY_NAMES))]
    if command == "eval":
        argv += ["--omega", "".join(draw(st.lists(st.sampled_from("RB"), min_size=n, max_size=n)))]
    else:
        argv += ["--n", str(n)]
    if argv[2] == "partial":
        half = draw(st.integers(1, max(1, n // 2)))
        blue_max = draw(st.integers(0, half - 1))
        red_min = draw(st.integers(max(half, blue_max + 2), 2 * half))
        argv += ["--block", f"1-{2 * half}", "--a", str(blue_max), "--b", str(red_min)]
    if command == "sample":
        argv += ["--trials", str(draw(st.integers(1, 50))), "--seed", str(draw(st.integers(0, 9)))]
        if draw(st.booleans()):
            argv += ["--red-count", str(draw(st.integers(0, n)))]
    return argv


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(cli_argvs())
def test_cli_json_round_trips(argv):
    """An error (exit 2) prints no JSON at all."""
    code, out = run_cli([*argv, "--format", "json"])
    assert [run_cli([*argv, "--format", fmt])[0] for fmt in ("text", "csv")] == [code, code]
    if code == 2:
        assert out == ""
    else:
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
