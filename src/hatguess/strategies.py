"""Guessing strategies and their worst-case guarantees.

Four strategies live here:

* pairing: partners answer about each other so exactly one of every pair
  is right, for a guaranteed n/2 correct guesses on any distribution;
* majority: everyone calls the color they see more of, which scores
  max{r, b} whenever the distribution is imbalanced but collapses to zero
  correct guesses on a balanced one;
* partial block rule: inside a block of players, call red on seeing many
  red hats in the block, blue on seeing few, and fall back to the pairing
  rule in between;
* composite: partition the players into blocks, derive each block's
  thresholds from the hats *outside* the block so that at most one block
  can land in its bad cases, and run the partial rule per block.  This
  tracks max{r, b} up to a structural loss of max_block/2 + (k-1)^2,
  which the block sizing keeps below 1.2 * n^(2/3) + 1 for even n.

Three of them are one rule, ``BlockThresholdRule``, which owns the
pairing: the pairing strategy is that rule with no blocks, the partial
strategy has one block whose table is one fixed pair, and the composite
plays a plan's blocks, each made of whole pairs, with tables built from
compute_thresholds.  Both the per-player and the bulk path read the tables.

Rule objects are immutable after construction, pure, and picklable, so
sweeps can fan them out across worker processes.  Each built-in rule also
implements ``bulk_guesses(red_mask) -> guess_mask``, a whole-profile bit
fast path used by the exhaustive and sampled sweeps, and declares its
cells and what each part reads in ``parts`` (the contract is on
``StrategyProfile``), which lets the exhaustive sweep score each part's
cell types per red count and value read of the red total instead of every
distribution.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from .core import (
    Color,
    ContractError,
    GuessRule,
    HatDistribution,
    Part,
    StrategyProfile,
    VisibleView,
    full_mask,
    mask_of,
)


@dataclass(frozen=True)
class Pairing:
    """Ordered disjoint pairs (x, y) of players; the order within a pair matters.

    The first player of a pair calls the partner's color, the second calls
    the opposite, so exactly one of the two is always right.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ContractError("a pairing needs at least one pair")
        seen: set[int] = set()
        partner: dict[int, int] = {}
        first: set[int] = set()
        for x, y in self.pairs:
            if x == y:
                raise ContractError(f"player {x} paired with itself")
            if x < 1 or y < 1:
                raise ContractError(f"invalid player index in pair ({x}, {y})")
            if x in seen or y in seen:
                raise ContractError(f"player appears in two pairs: ({x}, {y})")
            seen.update((x, y))
            partner[x] = y
            partner[y] = x
            first.add(x)
        object.__setattr__(self, "_partner", partner)
        object.__setattr__(self, "_first", frozenset(first))
        object.__setattr__(self, "_covers", frozenset(seen))

    @property
    def n(self) -> int:
        """Number of paired players (twice the pair count)."""
        return 2 * len(self.pairs)

    @property
    def covers(self) -> frozenset[int]:
        """The set of players the pairing touches."""
        return self._covers  # type: ignore[attr-defined]

    def partner_of(self, player: int) -> int:
        try:
            return self._partner[player]  # type: ignore[attr-defined]
        except KeyError:
            raise ContractError(f"player {player} is not in the pairing") from None

    def is_first(self, player: int) -> bool:
        """True when ``player`` is the x of its pair (the same-color caller)."""
        if player not in self._partner:  # type: ignore[attr-defined]
            raise ContractError(f"player {player} is not in the pairing")
        return player in self._first  # type: ignore[attr-defined]


def canonical_pairing(n: int) -> Pairing:
    """The agreed-in-advance pairing (1,2), (3,4), ..., (n-1,n)."""
    if n < 2 or n % 2:
        raise ContractError(f"a pairing needs a positive even player count, got {n}")
    return Pairing(tuple((i, i + 1) for i in range(1, n, 2)))


def pairing_strategy(pairing: Pairing) -> StrategyProfile:
    """Full-game profile for a pairing covering all players 1..n."""
    n = pairing.n
    if pairing.covers != frozenset(range(1, n + 1)):
        raise ContractError("pairing must cover exactly the players 1..n")
    return StrategyProfile(n, BlockThresholdRule(pairing, (), ()), "pairing")


class MajorityRule:
    """Guess the color seen more often among the other n-1 hats."""

    def __init__(self, n: int, tie_break: Color):
        self.n = n
        self.tie_break = tie_break
        self._full = full_mask(n)

    def _decide(self, reds: int, blues: int) -> Color:
        if reds > blues:
            return Color.RED
        if blues > reds:
            return Color.BLUE
        return self.tie_break

    def __call__(self, observer: int, view: VisibleView) -> Color:
        reds = view.visible_red_count()
        return self._decide(reds, self.n - 1 - reds)

    @property
    def parts(self) -> tuple[Part, ...]:
        """One part of n single players.  With no one outside it, its own
        composition is all it reads."""
        return (Part(tuple((p,) for p in range(1, self.n + 1)), 1),)

    def bulk_guesses(self, red_mask: int) -> int:
        r = (red_mask & self._full).bit_count()
        g = 0
        # a red wearer sees r-1 reds, a blue wearer sees r
        if self._decide(r - 1, self.n - r) is Color.RED:
            g |= red_mask & self._full
        if self._decide(r, self.n - 1 - r) is Color.RED:
            g |= self._full & ~red_mask
        return g


def majority_strategy(n: int, tie_break: Color = Color.RED) -> StrategyProfile:
    if n < 2:
        raise ContractError(f"majority strategy needs n >= 2, got {n}")
    return StrategyProfile(n, MajorityRule(n, tie_break), "majority")


@dataclass(frozen=True)
class PartialStrategyParams:
    """One block of players with its two thresholds.

    Members see the block from inside; with v red hats visible in the
    block, a member calls red when v >= red_min, blue when v <= blue_max,
    and plays the pairing rule otherwise.  Admissibility requires
    blue_max < |T|/2 <= red_min and blue_max + 2 <= red_min; blue_max may
    be negative, which simply makes the blue call unreachable.
    """

    members: frozenset[int]
    blue_max: int
    red_min: int

    def __post_init__(self) -> None:
        if not self.members:
            raise ContractError("empty block")
        partners = {p + 1 if p % 2 else p - 1 for p in self.members}
        if partners != self.members or min(self.members) < 1:
            raise ContractError("block must consist of whole canonical pairs (2i - 1, 2i)")
        half2 = len(self.members)  # = 2 * (|T|/2); avoids fractions
        if not (2 * self.blue_max < half2 <= 2 * self.red_min):
            raise ContractError(
                f"thresholds ({self.blue_max}, {self.red_min}) violate "
                f"blue_max < |T|/2 <= red_min for |T|={len(self.members)}"
            )
        if self.blue_max + 2 > self.red_min:
            raise ContractError(
                f"thresholds too close: need blue_max + 2 <= red_min, "
                f"got ({self.blue_max}, {self.red_min})"
            )

    @property
    def size(self) -> int:
        return len(self.members)


class BlockThresholdRule:
    """The block rule S(T, a, b) on every block of a game, and the pairing
    it plays between the thresholds.

    The pairing: in each pair (x, y), x calls y's color and y calls the
    opposite of x's, so exactly one of the two is right.  A member of block
    i who sees v red hats in the block calls red when v >= red_min, blue
    when v <= blue_max, and plays the pairing otherwise.  Players in no
    block play the pairing, so the rule with no blocks is the pairing
    strategy; players the pairing does not cover are rejected.

    Every block has one table of (blue_max, red_min) pairs, indexed by the
    red count outside the block modulo the table's length; both paths read
    it.  ``thresholds`` is one explicit table per block (the partial
    strategy's is a single pair) or a plan (the composite).  A plan's rule
    plays the plan's own blocks, every pair lies inside one of them, and
    its tables are compute_thresholds over one period k, built once here
    (a test pins them at every outside count).  The modular offset lets at
    most one block (the one indexed by the total red count mod k) land in
    its two bad cases.  The blocks of any rule are checked once, here: one
    non-empty table each, disjoint, all players of the pairing.  The rule
    is the only owner of the block masks.

    The bulk path plays the pairing with two shifts and two masks per
    distance y - x between partners (the canonical pairing has the single
    distance 1).
    """

    def __init__(
        self,
        pairing: Pairing,
        blocks: tuple[Collection[int], ...],
        thresholds: tuple[tuple[tuple[int, int], ...], ...] | PartitionPlan,
    ):
        plan = self.plan = thresholds if isinstance(thresholds, PartitionPlan) else None
        self.pairing = pairing
        self._block_of = {p: i for i, block in enumerate(blocks) for p in block}
        if plan is None:
            tables = tuple(thresholds)
        else:
            if tuple(blocks) != plan.blocks:
                raise ContractError("a plan's rule must play the plan's own blocks")
            for x, y in pairing.pairs:
                if x not in self._block_of or self._block_of[x] != self._block_of.get(y):
                    raise ContractError(f"pair ({x}, {y}) straddles a block boundary")
            tables = tuple(
                tuple(compute_thresholds(o, plan, i) for o in range(plan.k))
                for i in range(1, plan.k + 1)
            )
        if len(tables) != len(blocks) or not all(tables):
            raise ContractError(f"need one non-empty table for each of the {len(blocks)} blocks")
        if sum(map(len, blocks)) != len(self._block_of):
            raise ContractError("blocks overlap")
        if not self._block_of.keys() <= pairing.covers:
            raise ContractError("a block member is not one of the pairing's players")
        self._blocks = tuple(zip(map(mask_of, blocks), tables))
        groups: dict[int, tuple[int, int]] = {}
        for x, y in pairing.pairs:
            xs, ys = groups.get(y - x, (0, 0))
            groups[y - x] = (xs | 1 << (x - 1), ys | 1 << (y - 1))
        self._groups = tuple((d, xs, ys) for d, (xs, ys) in groups.items())
        self._covered = mask_of(pairing.covers)
        self._unblocked = self._covered & ~mask_of(self._block_of)

    def _pair_guess(self, observer: int, view: VisibleView) -> Color:
        seen = view.color_of(self.pairing.partner_of(observer))
        return seen if self.pairing.is_first(observer) else seen.opposite()

    def __call__(self, observer: int, view: VisibleView) -> Color:
        i = self._block_of.get(observer)
        if i is None:
            return self._pair_guess(observer, view)
        inside, table = self._blocks[i]
        blue_max, red_min = table[view.count_red(self._covered ^ inside) % len(table)]
        visible_reds = view.count_red(inside ^ (1 << (observer - 1)))
        if visible_reds >= red_min:
            return Color.RED
        if visible_reds <= blue_max:
            return Color.BLUE
        return self._pair_guess(observer, view)

    @property
    def parts(self) -> tuple[Part, ...] | None:
        """Each block is a part of its pairs, each unblocked pair a part of
        its own.  A block reads the red total R modulo its table's length
        (its outside count is that minus its own)."""
        index_of = self._block_of.get
        cells: list[list[tuple[int, int]]] = [[] for _ in self._blocks]
        loose = []
        for x, y in self.pairing.pairs:
            i = index_of(x)
            if i != index_of(y):
                return None  # a pair across two fixed blocks ties their guesses together
            if i is None:
                loose.append(Part(((x, y),), 1))
            else:
                cells[i].append((x, y))
        blocks = tuple(Part(tuple(c), len(table)) for c, (_, table) in zip(cells, self._blocks))
        return blocks + tuple(loose)

    def bulk_guesses(self, red_mask: int) -> int:
        pairing_g = 0
        for d, xs, ys in self._groups:
            # each x reads its partner's bit d places up, each y negates the bit d places down
            if d > 0:
                pairing_g |= (red_mask >> d) & xs | (~red_mask << d) & ys
            else:
                pairing_g |= (red_mask << -d) & xs | (~red_mask >> -d) & ys
        r = (red_mask & self._covered).bit_count()
        g = pairing_g & self._unblocked
        for inside, table in self._blocks:
            reds = red_mask & inside
            c = reds.bit_count()
            blue_max, red_min = table[(r - c) % len(table)]
            # red wearers see c-1 red hats in the block, blue wearers see c
            if c > red_min:  # everyone calls red
                g |= inside
            elif c > blue_max + 1:  # red wearers play the pairing, blue ones too below red_min
                g |= pairing_g & inside if c < red_min else pairing_g & reds | inside ^ reds
            elif c == red_min:  # thresholds closer than 2: red wearers call blue, blue ones red
                g |= inside ^ reds
            elif c > blue_max:  # red wearers call blue, blue ones play the pairing
                g |= pairing_g & (inside ^ reds)
        return g


def partial_profile(params: PartialStrategyParams, n: int) -> StrategyProfile:
    """Embed a block rule in an n-player game; outside players play the pairing."""
    if n < 2 or n % 2:
        raise ContractError(f"embedding needs a positive even n, got {n}")
    if any(p > n for p in params.members):
        raise ContractError("block members exceed the player count")
    rule = BlockThresholdRule(
        canonical_pairing(n), (params.members,), (((params.blue_max, params.red_min),),)
    )
    return StrategyProfile(n, rule, "partial")


def lemma_table_bound(distribution: HatDistribution, params: PartialStrategyParams) -> int:
    """Guaranteed correct guesses of the block rule, by case on the block's red count.

    With c red hats in the block, m = max{c, |T| - c}, and thresholds
    (a, b) = (blue_max, red_min):

    * c > b: everyone calls red, m = c are right;
    * c = b: blue wearers miscall red, the bound drops to b - |T|/2;
    * a+2 <= c <= b-1: everyone plays the pairing, exactly |T|/2 right;
    * c = a+1: red wearers miscall blue, the bound drops to |T|/2 - a - 1;
    * c <= a: everyone calls blue, m = |T| - c are right.
    """
    t = params.size
    half = t // 2
    c = distribution.count_red(mask_of(params.members))
    m = max(c, t - c)
    if c > params.red_min:
        return m
    if c == params.red_min:
        return params.red_min - half
    if c == params.blue_max + 1:
        return half - params.blue_max - 1
    if c <= params.blue_max:
        return m
    return half


@dataclass(frozen=True)
class PartitionPlan:
    """Blocks T_1..T_k of even sizes covering 1..n, and nothing else.

    The first ``large_blocks`` blocks share the larger of the two sizes,
    which is the smaller one plus 0 or 2.  n, k, the sizes and that split
    are read off the blocks once, here.  A plan builds no masks: the rule
    that plays it does.
    """

    blocks: tuple[tuple[int, ...], ...]
    n: int = field(init=False, repr=False, compare=False)
    k: int = field(init=False, repr=False, compare=False)
    block_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    large_blocks: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = tuple(map(len, self.blocks))
        k = len(sizes)
        if k < 2:
            raise ContractError(f"need k >= 2 blocks, got {k}")
        for size in sizes:
            if size < 2 or size % 2:
                raise ContractError(f"block sizes must be even and >= 2, got {size}")
        n = sum(sizes)
        players = set().union(*self.blocks)
        if len(players) < n:
            raise ContractError("blocks overlap")
        if players != set(range(1, n + 1)):
            raise ContractError("blocks must cover exactly the players 1..n")
        big, small = sizes[0], sizes[-1]
        large = sizes.count(big)
        if sizes != (big,) * large + (small,) * (k - large) or big - small not in (0, 2):
            raise ContractError(f"block sizes {sizes} do not follow the large/small split")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "large_blocks", large)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "l": self.large_blocks,
            "block_sizes": list(self.block_sizes),
            "blocks": [list(b) for b in self.blocks],
        }


def _block_count(n: int) -> int:
    # smallest integer t with t^3 >= n/4, i.e. 4t^3 >= n, floated up to 2
    t = 1
    while 4 * t * t * t < n:
        t += 1
    return max(2, t)


def _block_sizes(n: int) -> tuple[int, ...]:
    """The size rule: k = max(2, cuberoot-ceiling of n/4) even sizes summing
    to n, the larger ones first, each the smallest or largest even number
    around n/k."""
    if n % 2 or n < 4:
        raise ContractError(f"partition needs an even n >= 4, got {n}")
    k = _block_count(n)
    big = 2 * ((n + 2 * k - 1) // (2 * k))  # smallest even >= n/k
    small = 2 * (n // (2 * k))              # largest even <= n/k
    large = (n - k * small) // 2  # 0 when big == small, and then every block is large
    return (big,) * large + (small,) * (k - large)


def _structural_loss(block_sizes: tuple[int, ...]) -> int:
    """max_block/2 + (k-1)^2: the composite's loss bound on blocks of these sizes."""
    return max(block_sizes) // 2 + (len(block_sizes) - 1) ** 2


def make_partition(n: int) -> PartitionPlan:
    """The plan of the size rule: blocks of ``_block_sizes(n)``.

    Blocks are consecutive index ranges, so each consists of whole
    canonical pairs.  Needs n >= 4: two blocks of even size cannot be cut
    out of fewer players.
    """
    blocks = []
    start = 1
    for size in _block_sizes(n):
        blocks.append(tuple(range(start, start + size)))
        start += size
    return PartitionPlan(tuple(blocks))


def compute_thresholds(outside_reds: int, plan: PartitionPlan, block_index: int) -> tuple[int, int]:
    """Thresholds (blue_max, red_min) for one block of the composite.

    red_min is the smallest value >= |T_i|/2 with
    outside_reds + red_min == block_index (mod k);
    blue_max = red_min - k - 1.  The count of red hats outside the block is
    the same for every member of the block (none of them is outside it), so
    every member derives the same pair.
    """
    if not 1 <= block_index <= plan.k:
        raise ContractError(f"block index {block_index} out of 1..{plan.k}")
    outside_size = plan.n - len(plan.blocks[block_index - 1])
    if not 0 <= outside_reds <= outside_size:
        raise ContractError(f"outside red count {outside_reds} out of 0..{outside_size}")
    half = len(plan.blocks[block_index - 1]) // 2
    red_min = half + (block_index - outside_reds - half) % plan.k
    return red_min - plan.k - 1, red_min


class SpectatorCompositeRule:
    """Odd-n reduction: player n guesses the majority of what they see
    (tie -> red) and everyone else plays the even-n composite on players
    1..n-1, ignoring hat n entirely."""

    def __init__(self, n: int, inner: GuessRule):
        self.n = n
        self.inner = inner
        self._inner_full = full_mask(n - 1)
        self._inner_half = (n - 1) // 2

    def __call__(self, observer: int, view: VisibleView) -> Color:
        if observer == self.n:
            reds = view.count_red(self._inner_full)
            return Color.RED if reds >= self._inner_half else Color.BLUE
        return self.inner(observer, view)

    @property
    def parts(self) -> tuple[Part, ...] | None:
        """The inner parts plus the spectator, who reads the inner red count
        exactly."""
        inner = getattr(self.inner, "parts", None)
        if inner is None:
            return None
        return inner + (Part(((self.n,),), 0),)

    def bulk_guesses(self, red_mask: int) -> int:
        inner_bulk = self.inner.bulk_guesses  # type: ignore[attr-defined]
        g = inner_bulk(red_mask & self._inner_full)
        if (red_mask & self._inner_full).bit_count() >= self._inner_half:
            g |= 1 << (self.n - 1)
        return g


def _even_composite_rule(n: int) -> GuessRule:
    if n in (2, 4):
        # no partition into >= 2 even blocks exists at n = 2 and the bound
        # is loose enough at n = 4: the plain pairing already meets it
        return BlockThresholdRule(canonical_pairing(n), (), ())
    plan = make_partition(n)
    return BlockThresholdRule(canonical_pairing(n), plan.blocks, plan)


def composite_strategy(n: int) -> StrategyProfile:
    """The headline strategy: guarantees max{r,b} - 1.2*n^(2/3) - 2 correct guesses.

    For even n the guarantee sharpens to max{r,b} - 1.2*n^(2/3) - 1; odd n
    is handled by the spectator reduction (see SpectatorCompositeRule).
    """
    if n < 2:
        raise ContractError(f"composite strategy needs n >= 2, got {n}")
    if n % 2 == 0:
        rule: GuessRule = _even_composite_rule(n)
    else:
        rule = SpectatorCompositeRule(n, _even_composite_rule(n - 1))
    return StrategyProfile(n, rule, "composite")


@dataclass(frozen=True)
class GuaranteeBound:
    """Worst-case loss bounds below max{r,b} for the composite strategy.

    structural_loss is the exact plan-level bound max_block/2 + (k-1)^2
    (None when no plan is given); the theorem losses are the closed-form
    1.2*n^(2/3) + 1 (even n) and + 2 (any n).
    """

    n: int
    structural_loss: int | None
    theorem_loss_even: float
    theorem_loss_general: float


def guarantee_bound(n: int, plan: PartitionPlan | None = None) -> GuaranteeBound:
    if n < 2:
        raise ContractError(f"bounds need n >= 2, got {n}")
    structural = None
    if plan is not None:
        if plan.n != n:
            raise ContractError(f"plan is for n={plan.n}, asked about n={n}")
        structural = _structural_loss(plan.block_sizes)
    base = 1.2 * n ** (2.0 / 3.0)
    return GuaranteeBound(n, structural, base + 1.0, base + 2.0)
