"""Sweeps, sampled checks, exact identities, and the tiny-n strategy search."""

import json
import math
import random

import pytest

from hatguess import (
    CapacityError,
    Color,
    ContractError,
    StrategyProfile,
    canonical_pairing,
    composite_strategy,
    exhaustive_worst_case,
    identity_check,
    lower_bound_loss,
    majority_strategy,
    monte_carlo,
    pairing_strategy,
    robbins_check,
    search_optimal,
    total_correct_over_omega,
)
from hatguess.core import full_mask
from hatguess.analysis import _merge_partials, _random_red_mask, _sweep_chunk


# ----------------------------------------------------------------------
# exhaustive sweeps
# ----------------------------------------------------------------------

def test_sweep_pairing_n4():
    report = exhaustive_worst_case(pairing_strategy(canonical_pairing(4)), 4)
    assert report.mode == "exhaustive"
    assert report.evaluated == 16
    assert report.min_correct == 2
    assert report.worst_loss == 2
    assert report.witness.to_text() == "RRRR"
    assert report.histogram == {2: 16}
    assert report.total_correct == 32


def test_sweep_majority_n4():
    report = exhaustive_worst_case(majority_strategy(4), 4)
    assert report.worst_loss == 2
    assert report.min_correct == 0
    # the witness is a balanced distribution on which everyone is wrong
    assert report.witness.red_count == 2
    assert report.histogram == {0: 6, 3: 8, 4: 2}
    assert report.total_correct == 32


def test_sweep_composite_n10():
    report = exhaustive_worst_case(composite_strategy(10), 10)
    assert report.worst_loss == 4  # structural bound: 6/2 + 1
    assert report.total_correct == 10 * 2**9


def test_sweep_capacity_error_points_at_sampling():
    always_red = StrategyProfile(25, lambda observer, view: Color.RED, "always-red")
    with pytest.raises(CapacityError, match="monte_carlo"):
        exhaustive_worst_case(always_red, 25)  # no parts: the bit sweep, 2^25 bulk calls


def test_sweep_dimension_mismatch():
    with pytest.raises(ContractError):
        exhaustive_worst_case(majority_strategy(4), 6)


def test_sweep_workers_agree():
    strategy = composite_strategy(10)
    serial = exhaustive_worst_case(strategy, 10, workers=1)
    parallel = exhaustive_worst_case(strategy, 10, workers=3)
    assert serial == parallel


def test_chunk_merge_is_partition_independent():
    strategy = majority_strategy(6)
    whole = _sweep_chunk((strategy, 6, 0, 64))
    for cut in (1, 7, 32, 63):
        left = _sweep_chunk((strategy, 6, 0, cut))
        right = _sweep_chunk((strategy, 6, cut, 64))
        assert _merge_partials(left, right) == whole


def test_sweep_handles_unpicklable_rule():
    # lambdas cannot cross a process boundary; the sweep must fall back
    strategy = StrategyProfile(3, lambda obs, view: Color.RED, "always-red")
    report = exhaustive_worst_case(strategy, 3, workers=4)
    assert report.evaluated == 8
    assert report.total_correct == 3 * 2**2


def test_report_json_shape():
    report = exhaustive_worst_case(pairing_strategy(canonical_pairing(4)), 4)
    d = report.to_json_dict()
    assert d["histogram"] == {"2": 16}
    assert d["witness"] == "RRRR"
    assert d["total_correct"] == 32
    json.dumps(d)  # must be serializable as-is
    assert report.to_csv_rows() == [("correct_count", "omega_count"), (2, 16)]


# ----------------------------------------------------------------------
# averaging identity
# ----------------------------------------------------------------------

def test_total_correct_examples():
    assert total_correct_over_omega(pairing_strategy(canonical_pairing(2)), 2) == 4
    assert total_correct_over_omega(majority_strategy(4), 4) == 32
    assert total_correct_over_omega(composite_strategy(10), 10) == 5120


def test_total_correct_any_no_peek_strategy():
    # even a constant guesser totals n * 2^(n-1)
    always_red = StrategyProfile(3, lambda obs, view: Color.RED, "always-red")
    assert total_correct_over_omega(always_red, 3) == 12


def test_total_correct_capacity():
    with pytest.raises(CapacityError):
        total_correct_over_omega(majority_strategy(15), 15)


def test_identity_check_small():
    assert identity_check(2) == (4, 4, True)
    assert identity_check(4) == (32, 32, True)
    assert identity_check(6) == (192, 192, True)


def test_identity_check_all_even_to_64():
    for n in range(2, 65, 2):
        result = identity_check(n)
        assert result.equal, n
        assert result.rhs == (1 << n) * n // 2


def test_identity_check_matches_independent_binomials():
    # the running binomial against n + 1 independent math.comb calls, exactly
    for n in [*range(2, 513, 2), 1000, 2048, 4096]:
        oracle = sum(math.comb(n, i) * max(i, n - i) for i in range(n + 1) if i != n // 2)
        assert identity_check(n).lhs == oracle, n


def test_identity_check_rejects_odd():
    with pytest.raises(ContractError):
        identity_check(5)


def test_identity_equals_majority_total():
    # the binomial sum is exactly what the majority strategy totals
    for n in (2, 4, 6, 8):
        assert identity_check(n).lhs == total_correct_over_omega(majority_strategy(n), n)


# ----------------------------------------------------------------------
# bound formulas
# ----------------------------------------------------------------------

def test_lower_bound_loss_values():
    assert lower_bound_loss(100) == pytest.approx(2.976146866855409, rel=1e-12)
    assert lower_bound_loss(4) == pytest.approx(-0.26591076631435295, rel=1e-12)
    with pytest.raises(ContractError):
        lower_bound_loss(0)


def test_lower_bound_loss_monotone():
    values = [lower_bound_loss(n) for n in range(1, 2001)]
    assert all(a < b for a, b in zip(values, values[1:]))
    geometric = [lower_bound_loss(n) for n in (10, 100, 1000, 10**4, 10**5, 10**6)]
    assert all(a < b for a, b in zip(geometric, geometric[1:]))


def test_robbins_check():
    # exact central binomials sit just above the floor: 2 >= 1.9103..., 6 >= 5.8727...
    assert robbins_check(2)
    assert robbins_check(4)
    assert all(robbins_check(n) for n in range(2, 65, 2))
    with pytest.raises(ContractError):
        robbins_check(7)
    floor4 = 2**4 * math.sqrt(2 / (math.pi * 4)) * math.exp(-1 / 12)
    assert math.comb(4, 2) >= floor4 > 5.87
    # 2^n overflows a float from n = 1024 on; the floor is still compared exactly
    assert robbins_check(1024)
    assert robbins_check(4096)
    with pytest.raises(CapacityError):
        robbins_check(4098)


# ----------------------------------------------------------------------
# complete strategy search
# ----------------------------------------------------------------------

def test_search_optimal_n1():
    report = search_optimal(1)
    assert report.best_min_correct == 0
    assert report.best_worst_loss == 1
    assert report.strategies_enumerated == 2


def test_search_optimal_n2():
    report = search_optimal(2)
    assert report.best_min_correct == 1
    assert report.best_worst_loss == 1
    assert report.strategies_enumerated == 16


def test_search_optimal_n3():
    report = search_optimal(3)
    assert report.best_min_correct == 1
    assert report.best_worst_loss == 1
    assert report.strategies_enumerated == 4096


def test_search_optimal_limits():
    with pytest.raises(CapacityError):
        search_optimal(4)
    with pytest.raises(ContractError):
        search_optimal(0)


def test_search_optimal_agrees_with_pairing_and_averaging():
    # the pairing achieves a guaranteed 1 at n = 2, and the exact total
    # 4 = sum of correct guesses over 4 distributions rules out 2
    report = search_optimal(2)
    sweep = exhaustive_worst_case(pairing_strategy(canonical_pairing(2)), 2)
    assert report.best_min_correct == sweep.min_correct == 1


# ----------------------------------------------------------------------
# Monte Carlo sampling
# ----------------------------------------------------------------------

def test_monte_carlo_deterministic():
    strategy = composite_strategy(60)
    a = monte_carlo(strategy, 60, trials=2500, seed=42)
    b = monte_carlo(strategy, 60, trials=2500, seed=42)
    assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_monte_carlo_worker_count_invariant():
    strategy = composite_strategy(60)
    a = monte_carlo(strategy, 60, trials=2500, seed=9)
    b = monte_carlo(strategy, 60, trials=2500, seed=9, workers=4)
    assert a == b


def test_monte_carlo_seeds_differ():
    strategy = majority_strategy(20)
    a = monte_carlo(strategy, 20, trials=300, seed=1)
    b = monte_carlo(strategy, 20, trials=300, seed=2)
    assert a.histogram != b.histogram


def test_monte_carlo_pairing_constant():
    report = monte_carlo(pairing_strategy(canonical_pairing(100)), 100, trials=500, seed=3)
    assert report.histogram == {50: 500}
    assert report.mode == "sampled"
    assert report.total_correct is None
    assert "total_correct" not in report.to_json_dict()


def test_monte_carlo_red_count_composition():
    rng = random.Random(0)
    for red_count in (0, 1, 37, 50, 99, 100):
        for _ in range(20):
            mask = _random_red_mask(rng, 100, red_count)
            assert mask.bit_count() == red_count
    uniform_masks = {_random_red_mask(rng, 100, None).bit_count() for _ in range(50)}
    assert len(uniform_masks) > 1


def chi_square_critical(df, z=3.719):
    """Wilson-Hilferty approximation of the chi-square quantile at p = 1e-4."""
    h = 2 / (9 * df)
    return df * (1 - h + z * math.sqrt(h)) ** 3


# every k for n = 5..8; (64, 1) and (64, 2) start sparse enough that
# clearing a surplus bit goes through the pick by rank
FIXED_COMPOSITIONS = [(n, k) for n in range(5, 9) for k in range(1, n)] + [(64, 1), (64, 2)]


@pytest.mark.parametrize("n, k", FIXED_COMPOSITIONS)
def test_random_red_mask_is_uniform_over_compositions(n, k):
    rng = random.Random(1000 * n + k)
    cells = math.comb(n, k)
    draws = 40 * cells
    counts = {}
    for _ in range(draws):
        mask = _random_red_mask(rng, n, k)
        assert mask.bit_count() == k and mask >> n == 0
        counts[mask] = counts.get(mask, 0) + 1
    expected = draws / cells
    # cells never drawn add expected each
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    chi2 += (cells - len(counts)) * expected
    assert chi2 < chi_square_critical(cells - 1), (n, k, chi2)


def test_random_red_mask_extremes():
    rng = random.Random(4)
    for n in (1, 5, 8, 1000):
        assert _random_red_mask(rng, n, 0) == 0
        assert _random_red_mask(rng, n, n) == full_mask(n)


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.words = 0

    def getrandbits(self, k):
        self.words += 1
        return super().getrandbits(k)


def test_random_red_mask_single_minority_hat_at_n1000():
    # a single red (or blue) hat needs no start words, only a few
    # 10-bit positions: the draw returns at once
    for red_count in (1, 999):
        rng = CountingRandom(red_count)
        for _ in range(100):
            mask = _random_red_mask(rng, 1000, red_count)
            assert mask.bit_count() == red_count
        assert rng.words < 200


def test_monte_carlo_fixed_count_worker_count_invariant():
    strategy = composite_strategy(100)
    a = monte_carlo(strategy, 100, trials=2500, seed=3, red_count=60, workers=1)
    b = monte_carlo(strategy, 100, trials=2500, seed=3, red_count=60, workers=2)
    assert a == b
    assert a.witness.red_count == 60


def test_monte_carlo_uniform_keyword():
    strategy = pairing_strategy(canonical_pairing(10))
    a = monte_carlo(strategy, 10, trials=100, seed=5, red_count="uniform")
    b = monte_carlo(strategy, 10, trials=100, seed=5, red_count=None)
    assert a == b


def test_monte_carlo_skewed_witness_has_fixed_count():
    report = monte_carlo(composite_strategy(64), 64, trials=400, seed=11, red_count=48)
    assert report.witness.red_count == 48
    assert report.evaluated == 400


def test_monte_carlo_validation():
    strategy = majority_strategy(10)
    with pytest.raises(ContractError):
        monte_carlo(strategy, 10, trials=0, seed=1)
    with pytest.raises(ContractError):
        monte_carlo(strategy, 10, trials=10, seed=1, red_count=11)
    with pytest.raises(ContractError):
        monte_carlo(strategy, 10, trials=10, seed=1, red_count=-1)
    with pytest.raises(ContractError):
        monte_carlo(strategy, 10, trials=10, seed=1, red_count="most")
    for red_count in (3.7, 3.0, True):  # not a count, though int() makes 3, 3 and 1 of them
        with pytest.raises(ContractError, match="red count"):
            monte_carlo(strategy, 10, trials=10, seed=1, red_count=red_count)
    for trials in (2.5, True):
        with pytest.raises(ContractError, match="trials"):
            monte_carlo(strategy, 10, trials=trials, seed=1)
    with pytest.raises(ContractError):
        monte_carlo(strategy, 12, trials=10, seed=1)
