"""Acceptance suite: one test per verification criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every tolerance and runtime budget is pinned here.
"""

import random
import time

import pytest

from hatguess import (
    HatDistribution,
    PartialStrategyParams,
    VisibleView,
    canonical_pairing,
    composite_strategy,
    compute_thresholds,
    exhaustive_worst_case,
    guarantee_bound,
    identity_check,
    lower_bound_loss,
    majority_strategy,
    make_partition,
    mask_of,
    monte_carlo,
    pairing_strategy,
    partial_profile,
    robbins_check,
    search_optimal,
    total_correct_over_omega,
)

EVEN_DESK = range(6, 19, 2)
ODD_DESK = range(7, 18, 2)


def block_params(size, blue_max, red_min):
    members = frozenset(range(1, size + 1))
    return PartialStrategyParams(members, blue_max, red_min)


@pytest.fixture(scope="module")
def composite_sweeps():
    """Exhaustive composite reports for the desk-scale range, shared below."""
    start = time.perf_counter()
    reports = {}
    for n in list(EVEN_DESK) + list(ODD_DESK):
        workers = 8 if n >= 16 else 1
        reports[n] = exhaustive_worst_case(composite_strategy(n), n, workers=workers)
    return reports, time.perf_counter() - start


def test_criterion_1_pairing_exactness():
    start = time.perf_counter()
    for n in range(2, 15, 2):
        report = exhaustive_worst_case(pairing_strategy(canonical_pairing(n)), n)
        assert report.histogram == {n // 2: 1 << n}, n
        assert report.min_correct == n // 2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1: PASS: pairing scores exactly n/2 on all omega, even n <= 14 ({elapsed:.2f}s)")


def test_criterion_2_averaging_identity():
    checked = 0
    for n in range(2, 13, 2):
        assert total_correct_over_omega(pairing_strategy(canonical_pairing(n)), n) == n * (1 << (n - 1))
        checked += 1
    for n in range(2, 13):
        assert total_correct_over_omega(majority_strategy(n), n) == n * (1 << (n - 1))
        assert total_correct_over_omega(composite_strategy(n), n) == n * (1 << (n - 1))
        checked += 2
    print(f"criterion 2: PASS: sum of correct guesses is exactly n*2^(n-1) in {checked} strategy/size runs")


def test_criterion_3_binomial_identity():
    start = time.perf_counter()
    for n in range(2, 65, 2):
        result = identity_check(n)
        assert result.equal and result.lhs == result.rhs, n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 3: PASS: exact binomial identity for all even n <= 64 ({elapsed*1000:.1f}ms)")


def test_criterion_4_theorem_at_desk_scale(composite_sweeps):
    reports, sweep_seconds = composite_sweeps
    for n in EVEN_DESK:
        report = reports[n]
        bound = guarantee_bound(n, make_partition(n))
        assert report.evaluated == 1 << n
        assert report.total_correct == n * (1 << (n - 1))
        assert report.worst_loss <= bound.theorem_loss_even, n
        assert report.worst_loss <= bound.structural_loss, n
    for n in ODD_DESK:
        report = reports[n]
        bound = guarantee_bound(n)
        assert report.evaluated == 1 << n
        assert report.total_correct == n * (1 << (n - 1))
        assert report.worst_loss <= bound.theorem_loss_general, n
    assert sweep_seconds < 120.0
    print(f"criterion 4: PASS: zero bound violations over all omega, n in 6..18 (sweeps took {sweep_seconds:.2f}s)")


def test_criterion_5_block_rule_table():
    checked = 0
    for size in (2, 4, 6, 8):
        for blue_max in range(-2, size // 2):
            for red_min in range(size // 2, size + 1):
                if blue_max + 2 > red_min:
                    continue
                params = block_params(size, blue_max, red_min)
                rule = partial_profile(params, size).guess_rule
                from hatguess import lemma_table_bound

                for mask in range(1 << size):
                    d = HatDistribution(size, mask)
                    cor = sum(
                        rule(i, VisibleView(d, i)) is d.color_of(i)
                        for i in range(1, size + 1)
                    )
                    bound = lemma_table_bound(d, params)
                    assert cor >= bound, (size, blue_max, red_min, d.to_text())
                    c = d.red_count
                    if c > red_min or c <= blue_max:
                        assert cor == bound, (size, blue_max, red_min, d.to_text())
                    checked += 1
    print(f"criterion 5: PASS: block rule meets its case table on {checked} (params, omega) pairs")


def test_criterion_6_at_most_one_block_fails():
    for n in range(4, 15, 2):
        plan = make_partition(n)
        k = plan.k
        for red_mask in range(1 << n):
            d = HatDistribution(n, red_mask)
            r = d.red_count
            failing = []
            for i in range(1, k + 1):
                inside = d.count_red(mask_of(plan.blocks[i - 1]))
                blue_max, red_min = compute_thresholds(r - inside, plan, i)
                if inside in (blue_max + 1, red_min):
                    failing.append(i)
            assert len(failing) <= 1, (n, d.to_text())
            if failing:
                assert failing[0] % k == r % k, (n, d.to_text())
    print("criterion 6: PASS: at most one failing block per omega, its index matching |R| mod k, even n <= 14")


def test_criterion_7_optimal_search():
    start = time.perf_counter()
    r1 = search_optimal(1)
    r2 = search_optimal(2)
    r3 = search_optimal(3)
    assert r1.best_min_correct == 0 and r1.strategies_enumerated == 2
    assert r2.best_min_correct == 1 and r2.strategies_enumerated == 16
    assert r3.best_min_correct == 1 and r3.strategies_enumerated == 4096
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 7: PASS: optimal search: 0 at n=1, 1 at n=2 (16 profiles), 1 at n=3 (4096 profiles) ({elapsed*1000:.0f}ms)")


def test_criterion_8_lower_bound_consistency(composite_sweeps):
    reports, _ = composite_sweeps
    assert lower_bound_loss(100) == pytest.approx(2.9762, abs=1e-4)
    assert all(robbins_check(n) for n in range(2, 65, 2))
    for n in EVEN_DESK:
        floor = lower_bound_loss(n)
        assert reports[n].worst_loss >= floor, n
        for strategy in (pairing_strategy(canonical_pairing(n)), majority_strategy(n)):
            report = exhaustive_worst_case(strategy, n, workers=4 if n >= 16 else 1)
            assert report.worst_loss >= floor, (strategy.name, n)
    print("criterion 8: PASS: lower-bound formula matches and no verified strategy beats it")


def test_criterion_9_monte_carlo_scale():
    start = time.perf_counter()
    trials = 10_000
    for n in (1000, 999):
        strategy = composite_strategy(n)
        bound = guarantee_bound(n)
        limit = bound.theorem_loss_even if n % 2 == 0 else bound.theorem_loss_general
        red_counts = [None, round(n / 2), round(0.75 * n), round(0.9 * n)]
        for seed, red_count in enumerate(red_counts, start=100):
            report = monte_carlo(
                strategy, n, trials=trials, red_count=red_count, seed=seed
            )
            assert report.evaluated == trials
            assert report.worst_loss <= limit, (n, red_count, report.worst_loss)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 9: PASS: 8 x 10^4 seeded samples at n=1000/999, zero bound violations ({elapsed:.2f}s)")


def test_criterion_10_no_peek_flip_tests():
    flips = 10_000
    strategies = {}
    for n in (8, 16, 100):
        size = n // 2
        params = block_params(size, size // 2 - 2, size // 2 + 1)
        strategies[n] = [
            pairing_strategy(canonical_pairing(n)),
            majority_strategy(n),
            composite_strategy(n),
            partial_profile(params, n),
        ]
    for n, per_n in strategies.items():
        rng = random.Random(n)
        for strategy in per_n:
            for _ in range(flips):
                d = HatDistribution(n, rng.getrandbits(n))
                i = rng.randrange(1, n + 1)
                assert strategy.guess(i, d) is strategy.guess(i, d.flip(i)), (
                    strategy.name, n, d.to_text(), i,
                )
    print("criterion 10: PASS: 10^4 random own-hat flips per strategy and n in {8, 16, 100}, zero guess changes")
