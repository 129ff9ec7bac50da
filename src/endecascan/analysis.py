"""Research queries over scan records.

Two families of questions: where a given word melds or refuses to meld
with its neighbours, and which accent patterns (periodic functions) the
chosen scansions realize.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from enum import Enum

from .corpus import VerseRecord
from .lexicon import Value
from .tokenizer import word_tokens


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


class Outcome(Enum):
    SYNALEPHE = "synalephe"
    DIALEPHE = "dialephe"


class Occurrence(Value):
    """One junction of a word with a neighbour in a chosen state; a
    value, never assigned to."""

    __slots__ = _fields = ("location", "key", "side", "outcome", "neighbor")

    def __init__(self, location: tuple[str, int, int], key: str, side: Side,
                 outcome: Outcome, neighbor: str):
        self.location, self.key, self.side = location, key, side
        self.outcome, self.neighbor = outcome, neighbor


def classify_word(key: str, records: Iterable[VerseRecord]) -> list[Occurrence]:
    """Every junction adjacent to key in every chosen state, classified."""
    out: list[Occurrence] = []
    for record in records:
        chosen = record.scansion.chosen
        if chosen is None:
            continue
        words = word_tokens(record.tokens)
        melds = chosen.melds
        for i, token in enumerate(words):
            if token.key != key:
                continue
            for side, n in ((Side.LEFT, i - 1), (Side.RIGHT, i + 1)):
                if 0 <= n < len(words):
                    # melds[j] is the junction of word j with word j - 1
                    outcome = (Outcome.SYNALEPHE if melds[max(i, n)]
                               else Outcome.DIALEPHE)
                    out.append(Occurrence(record.location, key, side,
                                          outcome, words[n].key))
    return out


def pattern_histogram(records: Iterable[VerseRecord],
                      include_secondary: bool = False) -> dict[str, int]:
    """Histogram of rendered accent patterns over the chosen states."""
    profiles: Counter = Counter()
    for record in records:
        chosen = record.scansion.chosen
        if chosen is not None:
            profiles[chosen.stresses(include_secondary)] += 1
    # distinct profiles render to distinct patterns: each is rendered once
    counts = {"".join("+" if stressed else "-" for stressed in p): n
              for p, n in profiles.items()}
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def occurrences_tsv(occurrences: list[Occurrence]) -> str:
    rows = ["cantica\tcanto\tline\tword\tside\toutcome\tneighbor"]
    for o in occurrences:
        c, n, l = o.location
        rows.append(f"{c}\t{n}\t{l}\t{o.key}\t{o.side.value}\t"
                    f"{o.outcome.value}\t{o.neighbor}")
    return "\n".join(rows) + "\n"


def histogram_tsv(histogram: dict[str, int]) -> str:
    rows = ["pattern\tcount"]
    rows.extend(f"{p}\t{c}" for p, c in histogram.items())
    return "\n".join(rows) + "\n"
