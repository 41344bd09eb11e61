#!/usr/bin/env python3
"""The exact combinatorics around the game, end to end.

1.  Averaging: every no-peek strategy totals exactly n * 2^(n-1) correct
    guesses over all distributions, so none can beat n/2 on average.
2.  The binomial-sum identity that total implies for the majority count.
3.  The central-binomial floor and the resulting impossibility bound:
    every strategy must lose sqrt(n/(2*pi))*exp(-1/(3n)) - 1 somewhere.
4.  Complete strategy-space search for n <= 3, confirming nothing
    guarantees more than the pairing already does.
5.  A seeded large-n sample run of the composite against the bound.
"""

from hatguess import (
    composite_strategy,
    guarantee_bound,
    identity_check,
    lower_bound_loss,
    monte_carlo,
    robbins_check,
    search_optimal,
    total_correct_over_omega,
)
from hatguess import canonical_pairing, majority_strategy, pairing_strategy


def main():
    print("averaging identity, exact totals over all 2^n boards:")
    for n in (4, 8, 10):
        expected = n * 2 ** (n - 1)
        for strategy in (
            pairing_strategy(canonical_pairing(n)),
            majority_strategy(n),
            composite_strategy(n),
        ):
            total = total_correct_over_omega(strategy, n)
            print(f"  n={n:>2} {strategy.name:>9}: {total} == {expected}")
            assert total == expected

    print("\nbinomial identity, exact big integers:")
    for n in (6, 32, 64):
        result = identity_check(n)
        print(f"  n={n:>2}: lhs = rhs = {result.lhs} -> {result.equal}")
    result = identity_check(4096)
    print(f"  n=4096 (the cap): lhs = rhs, {result.lhs.bit_length()}-bit integers -> {result.equal}")
    assert result.equal

    print("\ncentral binomial floor holds for every even n up to 64:",
          all(robbins_check(n) for n in range(2, 65, 2)))
    print("central binomial floor holds at n = 4096 (the cap):", robbins_check(4096))
    assert robbins_check(4096)

    print("\nunavoidable worst-case loss (negative values are vacuous):")
    for n in (4, 16, 100, 10_000, 1_000_000):
        print(f"  n={n:>8}: {lower_bound_loss(n):>12.4f}")

    print("\ncomplete strategy-space search at tiny n:")
    for n in (1, 2, 3):
        r = search_optimal(n)
        print(
            f"  n={n}: best guaranteed correct = {r.best_min_correct}, "
            f"best worst loss = {r.best_worst_loss} "
            f"({r.strategies_enumerated} profiles enumerated)"
        )

    print("\nseeded sample run, composite at n = 1000 (10k draws):")
    n = 1000
    report = monte_carlo(composite_strategy(n), n, trials=10_000, seed=2024)
    bound = guarantee_bound(n)
    print(
        f"  min correct {report.min_correct}, worst loss {report.worst_loss}, "
        f"bound {bound.theorem_loss_even:.1f} -> "
        f"{'OK' if report.worst_loss <= bound.theorem_loss_even else 'VIOLATED'}"
    )


if __name__ == "__main__":
    main()
