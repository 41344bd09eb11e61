"""Core types for the two-color simultaneous hat-guessing game.

Players 1..n each wear a red or blue hat.  Every player sees all hats
except their own and all players guess their own hat color at the same
time.  This module defines hat distributions, the masked view a player
guesses from, deterministic strategy profiles, and exact scoring.

Distributions are bit-indexed (one bit per player) so that flipping a
single hat and counting red hats over an index subset stay cheap inside
exhaustive sweeps over all 2^n distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence


class HatGameError(ValueError):
    """Base class for errors raised by this package."""


class EncodingError(HatGameError):
    """Malformed hat distribution (bad text, empty sequence, bad length)."""


class ContractError(HatGameError):
    """An operation was called outside its contract."""


class CapacityError(HatGameError):
    """The request exceeds the feasible exhaustive range."""


class Color(Enum):
    RED = "R"
    BLUE = "B"

    def opposite(self) -> Color:
        return Color.BLUE if self is Color.RED else Color.RED

    def __str__(self) -> str:
        return self.value


def mask_of(players: Iterable[int]) -> int:
    """Bitmask holding every player index in ``players``."""
    m = 0
    for p in players:
        m |= 1 << (p - 1)
    return m


def full_mask(n: int) -> int:
    """Bitmask holding all players 1..n."""
    return (1 << n) - 1


@dataclass(frozen=True)
class HatDistribution:
    """An assignment of a color to each of the n players.

    ``red_mask`` has bit i-1 set exactly when player i wears red.
    """

    n: int
    red_mask: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise EncodingError(f"need at least one player, got n={self.n}")
        if not 0 <= self.red_mask < (1 << self.n):
            raise EncodingError(f"red_mask {self.red_mask:#x} out of range for n={self.n}")

    @classmethod
    def from_text(cls, text: str) -> HatDistribution:
        """Parse a string over {R, B}; position 1 is the leftmost character."""
        if not text:
            raise EncodingError("empty distribution string")
        mask = 0
        for pos, ch in enumerate(text):
            if ch == "R":
                mask |= 1 << pos
            elif ch != "B":
                raise EncodingError(f"invalid character {ch!r} at position {pos + 1}")
        return cls(len(text), mask)

    @classmethod
    def from_colors(cls, colors: Sequence[Color]) -> HatDistribution:
        if not colors:
            raise EncodingError("empty color sequence")
        mask = 0
        for pos, c in enumerate(colors):
            if not isinstance(c, Color):
                raise EncodingError(f"not a Color at position {pos + 1}: {c!r}")
            if c is Color.RED:
                mask |= 1 << pos
        return cls(len(colors), mask)

    def to_text(self) -> str:
        return "".join("R" if self.red_mask >> i & 1 else "B" for i in range(self.n))

    @property
    def red_count(self) -> int:
        return self.red_mask.bit_count()

    @property
    def blue_count(self) -> int:
        return self.n - self.red_count

    def color_of(self, player: int) -> Color:
        if not 1 <= player <= self.n:
            raise ContractError(f"player {player} out of range 1..{self.n}")
        return Color.RED if self.red_mask >> (player - 1) & 1 else Color.BLUE

    def count_red(self, mask: int) -> int:
        """Number of red hats among the players selected by ``mask``."""
        return (self.red_mask & mask).bit_count()

    def flip(self, player: int) -> HatDistribution:
        """A copy with player ``player``'s hat color swapped."""
        if not 1 <= player <= self.n:
            raise ContractError(f"player {player} out of range 1..{self.n}")
        return HatDistribution(self.n, self.red_mask ^ (1 << (player - 1)))

    def __str__(self) -> str:
        return self.to_text()


def make_distribution(colors: str | Sequence[Color]) -> HatDistribution:
    """Build a distribution from a {R,B} string or a sequence of Colors."""
    if isinstance(colors, str):
        return HatDistribution.from_text(colors)
    return HatDistribution.from_colors(colors)


def majority_target(distribution: HatDistribution) -> int:
    """max{r, b}: the benchmark number of correct guesses for a distribution."""
    r = distribution.red_count
    return max(r, distribution.n - r)


@dataclass(frozen=True)
class VisibleView:
    """What one player gets to see: every hat except their own.

    A thin guard over the distribution, not a copy; any query for the
    observer's own position is rejected.
    """

    distribution: HatDistribution
    observer: int

    def __post_init__(self) -> None:
        if not 1 <= self.observer <= self.distribution.n:
            raise ContractError(
                f"observer {self.observer} out of range 1..{self.distribution.n}"
            )

    @property
    def n(self) -> int:
        return self.distribution.n

    def color_of(self, player: int) -> Color:
        if player == self.observer:
            raise ContractError(f"player {player} cannot see their own hat")
        return self.distribution.color_of(player)

    def count_red(self, mask: int) -> int:
        """Red hats among the players in ``mask``, which must exclude the observer."""
        if mask >> (self.observer - 1) & 1:
            raise ContractError(
                f"mask includes the observer (player {self.observer})"
            )
        return self.distribution.count_red(mask)

    def visible_red_count(self) -> int:
        """Red hats among all n-1 visible players."""
        return self.distribution.count_red(
            full_mask(self.n) ^ (1 << (self.observer - 1))
        )


# A guess rule answers for every player: (observer, view) -> that player's guess.
# It must be deterministic and must not depend on the observer's own hat.
GuessRule = Callable[[int, VisibleView], Color]


class Part(NamedTuple):
    """One part of a rule's players, as the exhaustive sweep reads it.

    ``cells`` are ordered pairs ``(x, y)`` or single players ``(p,)``, all of
    one kind within a part.  A pair cell has four types, named by the hats of
    x and y: RR, RB, BR, BB; a single cell has two, R and B.  ``modulus``
    says how the part reads the red total R: 1 not at all, k >= 2 as R mod
    k, 0 exactly (R mod 0 = R).  R counts the red hats of every player
    outside the part that reads it exactly, or of all players when no part
    does.  At a fixed value read of R and a fixed red count of the part,
    each cell's correct guesses depend only on the cell's own type.
    """

    cells: tuple[tuple[int, ...], ...]
    modulus: int

    @property
    def mask(self) -> int:
        """The part's players as a bit mask."""
        return mask_of(p for cell in self.cells for p in cell)


@dataclass(frozen=True)
class StrategyProfile:
    """A deterministic per-player guess rule for an n-player game.

    ``guess_rule`` may carry precomputed tables but must stay pure.  A rule
    object may additionally expose ``bulk_guesses(red_mask) -> guess_mask``
    as a whole-profile fast path for sweeps; bit i-1 of the result means
    player i guesses red.  The fast path must agree with the per-player
    rule everywhere (this is tested, not assumed).

    A rule with a fast path may also declare ``parts = (Part, ...)``.  The
    parts' cells partition the players, and a part that reads R exactly is
    one single player, of whom there is at most one (the odd-n spectator):
    R is then the red count of everyone else.  The promise: at a fixed
    value that its ``modulus`` lets a part read of R and a fixed count of
    red hats inside the part, each cell's correct guesses depend only on
    the cell's own type (RR, RB, BR, BB, or R, B), so the part scores the
    sum over its types of count * score.  The block rule keeps it: a member
    decides from the red count it sees in its block, the outside count and
    its partner's hat.  The exhaustive sweep of such a rule reads each
    part's score per cell type at each red count and read value, instead of
    scoring every distribution, and checks the promise on every run.
    """

    n: int
    guess_rule: GuessRule
    name: str

    def guess(self, observer: int, distribution: HatDistribution) -> Color:
        return self.guess_rule(observer, VisibleView(distribution, observer))

    @property
    def bulk(self) -> Callable[[int], int] | None:
        return getattr(self.guess_rule, "bulk_guesses", None)


@dataclass(frozen=True)
class GuessRecord:
    """The guesses produced on one distribution, with exact scoring."""

    guesses: tuple[Color, ...]
    correct_count: int
    correct_set: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "guesses": "".join(g.value for g in self.guesses),
            "correct_count": self.correct_count,
            "correct_set": sorted(self.correct_set),
        }


def evaluate(strategy: StrategyProfile, distribution: HatDistribution) -> GuessRecord:
    """Run every player's guess rule on ``distribution`` and score it."""
    if strategy.n != distribution.n:
        raise ContractError(
            f"strategy is for n={strategy.n}, distribution has n={distribution.n}"
        )
    guesses = tuple(
        strategy.guess_rule(i, VisibleView(distribution, i))
        for i in range(1, distribution.n + 1)
    )
    correct = frozenset(
        i for i in range(1, distribution.n + 1) if guesses[i - 1] is distribution.color_of(i)
    )
    return GuessRecord(guesses, len(correct), correct)


def verify_no_peek(strategy: StrategyProfile, distribution: HatDistribution) -> list[int]:
    """Players whose guess changes when their own hat is flipped on ``distribution``.

    An empty list means no player's guess depends on their own hat here.
    """
    if strategy.n != distribution.n:
        raise ContractError(
            f"strategy is for n={strategy.n}, distribution has n={distribution.n}"
        )
    violators = []
    for i in range(1, distribution.n + 1):
        if strategy.guess(i, distribution) is not strategy.guess(i, distribution.flip(i)):
            violators.append(i)
    return violators
