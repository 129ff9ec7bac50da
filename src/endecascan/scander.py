"""Verse scansion by weighted state expansion.

A verse is consumed word by word.  Each partial reading is a state
carrying its likelihood, the syllable count, the accent flags and the
right-hand synalephe propensity of the last word.  When the melding
probability between two adjacent words is not categorical the state
forks: one branch melds the boundary syllables (weighted by the meld
probability), the other keeps them apart.

States form a back-pointer trellis: each one points to the state it
extends and to the word step that extended it, a record built once per
(word, analysis) and shared by every state that reads it.  The rendered
syllabification, the per-word meld flags and the accent marks are
rebuilt from that chain only when read; the final states of a verse
are collapsed into flat records, so they keep no part of the search
alive.

Metric constraints prune the candidate space: a stress on the tenth
syllable is mandatory, a stress on the fourth or sixth is preferred,
and words trailing the tenth-syllable stress may not push the total
beyond eleven syllables unless that stress sits in the verse-final
word.  Among admissible readings the most likely one wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .lexicon import (APOSTROPHE_VALUE, PROB_ZERO, Lexicon, Propensity,
                      UnknownWord, WordAnalysis)
from .tokenizer import Token, word_tokens

TENTH = 10


@dataclass(frozen=True)
class ScanConfig:
    require_a10: bool = True
    prefer_a4_or_a6: bool = True
    max_total_syllables: int = 11
    likelihood_floor: float = 1e-9
    tie_epsilon: float = 1e-12
    # disabled only by exhaustive-enumeration checks; admissibility is
    # still enforced at finalize time
    incremental_pruning: bool = True

    def __post_init__(self):
        if self.max_total_syllables < 1:
            raise ValueError("max_total_syllables must be >= 1")
        if self.likelihood_floor < 0 or self.tie_epsilon <= 0:
            raise ValueError("floors must be positive")


@dataclass(slots=True, unsafe_hash=True)
class AccentMark:
    """One accent landing inside a scanned verse; a value, never assigned to."""

    position: int
    primary: bool
    eligible: bool
    word_index: int


class _Step:
    """One analysis of one word, as every state it extends reads it."""

    __slots__ = ("n", "weight", "p_l", "p_r", "offsets", "primary",
                 "eligible", "index", "melded", "apart", "opening")

    def __init__(self, token: Token, analysis: WordAnalysis, index: int,
                 eligible: bool, prev_trail: str):
        self.n = analysis.n
        self.weight = analysis.weight
        self.p_l = analysis.p_l
        self.p_r = analysis.p_r
        self.offsets = analysis.accents
        self.primary = analysis.accents[0]
        self.eligible = eligible
        self.index = index
        # the word's rendered text after a melded junction, after a
        # separate one, and at the very start of the text
        joint = prev_trail + token.lead
        if token.word == analysis.form:
            body = analysis.rendered
        else:  # e.g. a capitalised word: cut its own letters
            body = "|".join(split_surface(token.word, analysis))
        self.melded = joint + " " + body
        self.apart = joint + " |" + body
        self.opening = self.apart if joint else "|" + body


def _append_word(text: str, step: _Step, melded: bool) -> str:
    if melded:
        return text + step.melded
    return text + (step.apart if text else step.opening)


# allocates a state without running __init__: advance and _collapse set
# every slot that the kind of state they build reads
_new_state = object.__new__
_STRIDE = 5  # entries per word in a flat state's `_words`


class ScanState:
    """One partial (or final) reading of a verse.

    The slots hold what the search and the ranking read.  A state built
    by `advance` is a chain node: it points to the state it extends
    (`_parent`), to the word step that extended it and to whether that
    word melded.  A state built by the constructor, and every final
    state of `scan_verse`, is flat: `_parent` is None and it holds its
    text, meld flags and accent data itself.  `text`, `melds` and
    `accents` read the same either way.  States are values; never
    assign to one.
    """

    __slots__ = ("likelihood", "count", "pending_p_r", "a4", "a6", "a10",
                 "accent10_word_index", "order",
                 "_parent", "_step", "_melded",  # chain nodes
                 "_text", "_prefix", "_words")  # flat states

    def __init__(self, text: str = "", likelihood: float = 1.0,
                 count: int = 0, pending_p_r: Propensity = PROB_ZERO,
                 a4: bool = False, a6: bool = False, a10: bool = False,
                 accent10_word_index: int | None = None,
                 melds: tuple[bool, ...] = (),
                 accents: tuple[AccentMark, ...] = (), order: int = 0):
        self.likelihood = likelihood
        self.count = count
        self.pending_p_r = pending_p_r
        self.a4 = a4
        self.a6 = a6
        self.a10 = a10
        self.accent10_word_index = accent10_word_index
        self.order = order  # construction order, the deterministic tie-breaker
        self._parent = None
        self._text = text
        # melds (per word: melded with the previous one) and accents given
        # outright; words added later are in `_words`
        self._prefix = (tuple(melds), tuple(accents))
        # _STRIDE entries per word: the count after it, whether it melded,
        # its accent offsets, its stress eligibility and its index
        self._words = ()

    def _collapse(self, tail: str = "") -> ScanState:
        """A flat copy with `tail` appended to the text and no chain."""
        links = []
        node = self
        while node._parent is not None:
            links.append(node)
            node = node._parent
        links.reverse()
        text = node._text
        words = list(node._words)
        for link in links:
            step = link._step
            text = _append_word(text, step, link._melded)
            words += (link.count, link._melded, step.offsets, step.eligible,
                      step.index)
        flat = _new_state(ScanState)
        flat.likelihood = self.likelihood
        flat.count = self.count
        flat.pending_p_r = self.pending_p_r
        flat.a4 = self.a4
        flat.a6 = self.a6
        flat.a10 = self.a10
        flat.accent10_word_index = self.accent10_word_index
        flat.order = self.order
        flat._parent = None
        flat._text = text + tail
        flat._prefix = node._prefix
        flat._words = tuple(words)
        return flat

    def _flat(self) -> ScanState:
        return self if self._parent is None else self._collapse()

    @property
    def text(self) -> str:
        return self._flat()._text

    @property
    def melds(self) -> tuple[bool, ...]:
        flat = self._flat()
        return flat._prefix[0] + flat._words[1::_STRIDE]

    @property
    def accents(self) -> tuple[AccentMark, ...]:
        flat = self._flat()
        words = flat._words
        # a word's accents land at offsets from the count after that word
        return flat._prefix[1] + tuple(
            AccentMark(count + o, o == offsets[0], eligible, index)
            for count, offsets, eligible, index in zip(
                words[0::_STRIDE], words[2::_STRIDE], words[3::_STRIDE],
                words[4::_STRIDE])
            for o in offsets)

    @property
    def syllables(self) -> list[str]:
        # everything after the first bar; a leading chunk is punctuation
        return self.text.split("|")[1:]

    def _value(self) -> tuple:
        return (self.text, self.likelihood, self.count, self.pending_p_r,
                self.a4, self.a6, self.a10, self.accent10_word_index,
                self.melds, self.accents, self.order)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(
            _VALUE_FIELDS, self._value()))
        return f"ScanState({fields})"


_VALUE_FIELDS = ("text", "likelihood", "count", "pending_p_r", "a4", "a6",
                 "a10", "accent10_word_index", "melds", "accents", "order")


class ScanStatus(Enum):
    OK = "ok"
    WARN_NO_CAESURA = "warn-no-caesura"
    FAIL_NO_ACCENT10 = "fail-no-accent10"
    FAIL_UNKNOWN_WORD = "fail-unknown-word"
    FAIL_BAD_ANALYSIS = "fail-bad-analysis"

    @property
    def is_admissible(self) -> bool:
        return self in (ScanStatus.OK, ScanStatus.WARN_NO_CAESURA)


@dataclass(frozen=True)
class VerseScansion:
    """Outcome of scanning one verse."""

    chosen: ScanState | None
    admissible: tuple[ScanState, ...]
    status: ScanStatus
    final_states: tuple[ScanState, ...] = ()
    unknown_key: str | None = None
    best_rejected: ScanState | None = None


def meld_probability(p_r: Propensity, p_l: Propensity) -> float:
    """Probability that two adjacent word boundaries meld.

    An apostrophe forces the synalephe against any partner that admits
    one at all; a flat zero on the other side (consonant contact) still
    blocks it.  Otherwise the probability is the plain product.
    """
    if p_r.is_apostrophe or p_l.is_apostrophe:
        if p_r.is_apostrophe and p_l.is_apostrophe:
            return 1.0
        other = p_l if p_r.is_apostrophe else p_r
        return 0.0 if other.value == 0.0 else 1.0
    return p_r.value * p_l.value


class BadAnalysisError(ValueError):
    """An analysis whose syllables do not spell the word it scans."""


def split_surface(surface: str, analysis: WordAnalysis) -> list[str]:
    """Slice the surface form with the analysis' syllable lengths."""
    out = []
    pos = 0
    for syllable in analysis.syllables:
        end = pos + len(syllable)
        out.append(surface[pos:end])
        pos = end
    if pos != len(surface):
        raise BadAnalysisError(
            f"analysis {'|'.join(analysis.syllables)!r} does not cover "
            f"surface {surface!r}")
    return out


_MELD_ONLY = ((True, 1.0),)
_APART_ONLY = ((False, 1.0),)


def advance(states: list[ScanState], token: Token,
            analyses: tuple[WordAnalysis, ...], token_index: int,
            stress_eligible: bool, cfg: ScanConfig,
            prev_trail: str = "") -> list[ScanState]:
    """Extend every state with every analysis of the next word.

    Non-categorical meld probabilities fork each state into a melded
    branch (weight m) and a separate branch (weight 1 - m); likelihood
    mass is conserved.  Accent bookkeeping and incremental pruning
    happen here.
    """
    steps = [_Step(token, analysis, token_index, stress_eligible, prev_trail)
             for analysis in analyses]
    pruning = cfg.incremental_pruning
    floor = cfg.likelihood_floor
    budget = cfg.max_total_syllables
    successors: list[ScanState] = []
    order = 0
    for state in states:
        p_r = state.pending_p_r
        for step in steps:
            # meld_probability's plain product, inlined for the common case
            if (p_r.value == APOSTROPHE_VALUE
                    or step.p_l.value == APOSTROPHE_VALUE):
                m = meld_probability(p_r, step.p_l)
            else:
                m = p_r.value * step.p_l.value
            if m >= 1.0:
                branches = _MELD_ONLY
            elif m <= 0.0:
                branches = _APART_ONLY
            else:
                branches = ((True, m), (False, 1.0 - m))
            for melded, branch_p in branches:
                likelihood = state.likelihood * step.weight * branch_p
                count = state.count + step.n - (1 if melded else 0)
                a4, a6, a10 = state.a4, state.a6, state.a10
                accent10_word = state.accent10_word_index
                if stress_eligible:
                    # accents of ineligible words count nowhere
                    if 4 - count in step.offsets:
                        a4 = True
                    if 6 - count in step.offsets:
                        a6 = True
                    if not a10 and count + step.primary == TENTH:
                        a10 = True
                        accent10_word = token_index
                if pruning:
                    if likelihood < floor:
                        continue
                    # trailing-word rule: once the tenth-syllable stress is
                    # placed, further words may not exceed the total budget
                    if (a10 and accent10_word != token_index
                            and count > budget):
                        continue
                node = _new_state(ScanState)
                node.likelihood = likelihood
                node.count = count
                node.pending_p_r = step.p_r
                node.a4 = a4
                node.a6 = a6
                node.a10 = a10
                node.accent10_word_index = accent10_word
                node.order = order
                node._parent = state
                node._step = step
                node._melded = melded
                successors.append(node)
                order += 1
    return successors


def _admissible(state: ScanState, cfg: ScanConfig, last_word_index: int) -> bool:
    if cfg.require_a10 and not state.a10:
        return False
    if state.a10 and state.accent10_word_index == last_word_index:
        return True  # versi sdruccioli: any count when the stress is final
    return state.count <= cfg.max_total_syllables


def finalize(states: list[ScanState], cfg: ScanConfig,
             last_word_index: int) -> VerseScansion:
    """Filter final states by the metric constraints and pick a winner."""
    final = tuple(states)
    admissible = [s for s in states if _admissible(s, cfg, last_word_index)]
    if not admissible:
        best = max(states, key=lambda s: s.likelihood, default=None)
        return VerseScansion(None, (), ScanStatus.FAIL_NO_ACCENT10, final,
                             best_rejected=best)
    status = ScanStatus.WARN_NO_CAESURA
    if cfg.prefer_a4_or_a6 and any(s.a4 or s.a6 for s in admissible):
        admissible = [s for s in admissible if s.a4 or s.a6]
        status = ScanStatus.OK
    elif not cfg.prefer_a4_or_a6:
        status = ScanStatus.OK
    ranked = _rank(admissible, cfg.tie_epsilon)
    return VerseScansion(ranked[0], tuple(ranked), status, final)


def _rank(states: list[ScanState], eps: float) -> list[ScanState]:
    by_likelihood = sorted(states, key=lambda s: -s.likelihood)
    ranked: list[ScanState] = []
    i = 0
    while i < len(by_likelihood):
        j = i
        while (j + 1 < len(by_likelihood)
               and by_likelihood[i].likelihood - by_likelihood[j + 1].likelihood <= eps):
            j += 1
        group = sorted(by_likelihood[i:j + 1], key=lambda s: (s.count, s.order))
        ranked.extend(group)
        i = j + 1
    return ranked


def scan_verse(tokens: list[Token], lex: Lexicon,
               cfg: ScanConfig | None = None) -> VerseScansion:
    """Scan one tokenized verse against a lexicon."""
    cfg = cfg or ScanConfig()
    words = word_tokens(tokens)
    if not words:
        return VerseScansion(None, (), ScanStatus.FAIL_NO_ACCENT10, ())
    states = [ScanState()]
    prev_trail = ""
    for index, token in enumerate(words):
        try:
            analyses = lex.lookup(token.key)
        except UnknownWord:
            return VerseScansion(None, (), ScanStatus.FAIL_UNKNOWN_WORD, (),
                                 unknown_key=token.key)
        states = advance(states, token, analyses, index,
                         lex.is_stress_eligible(token.key), cfg, prev_trail)
        prev_trail = token.trail
        if not states:
            return VerseScansion(None, (), ScanStatus.FAIL_NO_ACCENT10, ())
    states = [s._collapse(prev_trail) for s in states]
    return finalize(states, cfg, len(words) - 1)
