"""Verse scansion by weighted state expansion.

A verse is consumed word by word.  Each partial reading is a state
carrying its likelihood, the syllable count, the accent flags and the
right-hand synalephe propensity of the last word.  When the melding
probability between two adjacent words is not categorical the state
forks: one branch melds the boundary syllables (weighted by the meld
probability), the other keeps them apart.

States form a back-pointer trellis: each one points to the state it
extends, to the lexicon analysis of the word that extended it and to
that word's token, index and eligibility, a tuple shared by every state
the word extends.  The rendered syllabification, the per-word meld flags
and the accent marks are read off that chain only when asked for.  A
state's text is its parent's text plus its word's piece, rendered and
kept when first read, so the readings of a verse share the text of their
common prefix and each node's text is built at most once.  A plain word,
its key with no mark around it, adds a piece its analysis made once
(`melded` or `apart`); only a capitalised or punctuated word is cut from
its own letters.

Metric constraints prune the candidate space: a stress on the tenth
syllable is mandatory, a stress on the fourth or sixth is preferred,
and words trailing the tenth-syllable stress may not push the total
beyond eleven syllables unless that stress sits in the verse-final
word.  Among admissible readings the most likely one wins.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

from .lexicon import (APOSTROPHE_VALUE, PROB_ZERO, Lexicon, Propensity,
                      Value, WordAnalysis)
from .tokenizer import Token, TokenKind

TENTH = 10


class ScanConfig(Value):
    """The metric constraints and search limits of a scan; a value."""

    __slots__ = _fields = ("require_a10", "prefer_a4_or_a6", "max_total_syllables",
                           "likelihood_floor", "tie_epsilon", "incremental_pruning")

    def __init__(self, require_a10: bool = True, prefer_a4_or_a6: bool = True,
                 max_total_syllables: int = 11, likelihood_floor: float = 1e-9,
                 tie_epsilon: float = 1e-12, incremental_pruning: bool = True):
        if max_total_syllables < 1:
            raise ValueError("max_total_syllables must be >= 1")
        if likelihood_floor < 0 or tie_epsilon <= 0:
            raise ValueError("floors must be positive")
        self.require_a10 = require_a10
        self.prefer_a4_or_a6 = prefer_a4_or_a6
        self.max_total_syllables = max_total_syllables
        self.likelihood_floor = likelihood_floor
        self.tie_epsilon = tie_epsilon
        # disabled only by exhaustive-enumeration checks; admissibility is
        # still enforced at finalize time
        self.incremental_pruning = incremental_pruning


class AccentMark(Value):
    """One accent landing inside a scanned verse; a value, never assigned to."""

    __slots__ = _fields = ("position", "primary", "eligible", "word_index")

    def __init__(self, position: int, primary: bool, eligible: bool,
                 word_index: int):
        self.position, self.primary = position, primary
        self.eligible, self.word_index = eligible, word_index


def _append_word(text: str, node: ScanState) -> str:
    token = node._word[0]
    analysis = node._analysis
    if token.word == analysis.form:
        body = analysis.rendered
    else:
        # e.g. a capitalised word: cut its own letters by syllable lengths;
        # advance checked that the analysis spells the word's key, which
        # has one character per character of the word
        word, pos, pieces = token.word, 0, []
        for syllable in analysis.syllables:
            pieces.append(word[pos:pos + len(syllable)])
            pos += len(syllable)
        body = "|".join(pieces)
    if node._melded:
        sep = " "
    else:
        sep = " |" if text or token.lead else "|"
    return f"{text}{token.lead}{sep}{body}{token.trail}"  # one allocation


# allocates a state without running __init__: advance sets every slot
# that a chain node reads
_new_state = object.__new__


class ScanState(Value):
    """One partial (or final) reading of a verse.

    The slots hold what the search and the ranking read.  A state built
    by the constructor is the empty root: the start of a verse, with no
    words, likelihood 1 and a p_r of 0, so the first word never melds.  A
    state built by `advance` is a chain node: it points to the state it
    extends (`_parent`), to the analysis and the word that extended it and
    to whether that word melded.  `text`, `melds`, `accents` and
    `stresses` are read off the chain; with the public slots the first
    three are the state's value.  States are values; never assign to one.
    """

    _fields = ("text", "likelihood", "count", "pending_p_r", "a4", "a6",
               "a10", "melds", "accents")
    __slots__ = ("likelihood", "count", "pending_p_r", "a4", "a6", "a10",
                 # chain nodes; _word is (token, token index, stress-eligible)
                 "_parent", "_analysis", "_word", "_melded",
                 "_text")  # None on a chain node until its text is read

    def __init__(self):
        self.likelihood = 1.0
        self.count = 0
        self.pending_p_r = PROB_ZERO
        self.a4 = self.a6 = self.a10 = False
        self._parent = None
        self._text = ""

    def _chain(self) -> list[ScanState]:
        """The chain nodes from the root to this state, in order."""
        links = []
        node = self
        while node._parent is not None:
            links.append(node)
            node = node._parent
        links.reverse()
        return links

    @property
    def text(self) -> str:
        """The reading rendered: words apart by spaces, each one's
        syllables joined by bars, a bar before each word that does not
        meld and each word's marks around it.  A node's text is its
        parent's plus its word's piece: a plain token adds its analysis's
        melded or apart piece, made once per analysis; any other word is
        cut from its letters by `_append_word`."""
        text = self._text
        if text is None:
            # fill in the missing texts down from the nearest node that
            # has one, so a prefix shared by many states is built once
            unbuilt = []
            node = self
            while text is None:
                unbuilt.append(node)
                node = node._parent
                text = node._text
            for node in reversed(unbuilt):
                if node._word[0].plain:
                    if node._melded:
                        text += node._analysis.melded
                    elif text:
                        text += node._analysis.apart
                    else:  # the verse's first word
                        text = node._analysis.apart[1:]
                else:
                    text = _append_word(text, node)
                node._text = text
        return text

    @property
    def melds(self) -> tuple[bool, ...]:
        """Per word: melded with the previous one."""
        return tuple(link._melded for link in self._chain())

    @property
    def accents(self) -> tuple[AccentMark, ...]:
        marks = []
        for link in self._chain():
            _, index, eligible = link._word
            offsets = link._analysis.accents
            primary = offsets[0]
            # a word's accents land at offsets from the count after it
            marks += (AccentMark(link.count + o, o == primary, eligible, index)
                      for o in offsets)
        return tuple(marks)

    def stresses(self, include_secondary: bool = False) -> tuple[bool, ...]:
        """One flag per syllable, set where an accent of a stress-eligible
        word lands: its primary one, or any with include_secondary.  The
        profile of `accents`, read off the chain without making marks."""
        stressed = [False] * self.count
        node = self
        while node._parent is not None:
            if node._word[2]:
                # node.count + o is in 1..self.count on a chain from the
                # empty root: an accent lands past the count before its
                # word, less one if the word melds, and the root's p_r of
                # 0 keeps the first word from melding; counts never fall
                # along a chain
                if include_secondary:
                    for o in node._analysis.accents:
                        stressed[node.count + o - 1] = True
                else:
                    stressed[node.count + node._analysis.accents[0] - 1] = True
            node = node._parent
        return tuple(stressed)


class ScanStatus(Enum):
    OK = "ok"
    WARN_NO_CAESURA = "warn-no-caesura"
    FAIL_NO_ACCENT10 = "fail-no-accent10"
    FAIL_UNKNOWN_WORD = "fail-unknown-word"
    FAIL_BAD_ANALYSIS = "fail-bad-analysis"

    @property
    def is_admissible(self) -> bool:
        return self in (ScanStatus.OK, ScanStatus.WARN_NO_CAESURA)


# bound once: a member read through the Enum class is a slow lookup
_OK = ScanStatus.OK
_WARN_NO_CAESURA = ScanStatus.WARN_NO_CAESURA
_FAIL_NO_ACCENT10 = ScanStatus.FAIL_NO_ACCENT10
_PUNCT = TokenKind.PUNCT


class VerseScansion(Value):
    """Outcome of scanning one verse; a value, never assigned to."""

    __slots__ = _fields = ("chosen", "admissible", "status", "final_states",
                           "unknown_key", "best_rejected")

    def __init__(self, chosen: ScanState | None,
                 admissible: tuple[ScanState, ...], status: ScanStatus,
                 final_states: tuple[ScanState, ...] = (),
                 unknown_key: str | None = None,
                 best_rejected: ScanState | None = None):
        self.chosen, self.admissible, self.status = chosen, admissible, status
        self.final_states, self.unknown_key = final_states, unknown_key
        self.best_rejected = best_rejected


# allocates a scansion without running __init__: finalize sets all six
# slots of the common result, an admissible verse's
_new_scansion = object.__new__


def meld_probability(p_r: Propensity, p_l: Propensity) -> float:
    """Probability that two adjacent word boundaries meld.

    An apostrophe forces the synalephe against any partner that admits
    one at all; a flat zero on the other side (consonant contact) still
    blocks it.  Otherwise the probability is the plain product.
    """
    if p_r.value == APOSTROPHE_VALUE or p_l.value == APOSTROPHE_VALUE:
        return 0.0 if 0.0 in (p_r.value, p_l.value) else 1.0
    return p_r.value * p_l.value


class BadAnalysisError(ValueError):
    """An analysis whose syllables do not spell the key of the word it
    scans: a different length or different letters."""


def advance(states: list[ScanState], token: Token,
            analyses: tuple[WordAnalysis, ...], token_index: int,
            stress_eligible: bool, cfg: ScanConfig) -> list[ScanState]:
    """Extend every state with every analysis of the next word.

    Non-categorical meld probabilities fork each state into a melded
    branch (weight m) and a separate branch (weight 1 - m); likelihood
    mass is conserved.  Accent bookkeeping and incremental pruning
    happen here.
    """
    for analysis in analyses:
        if analysis.form != token.key:
            raise BadAnalysisError(f"analysis {analysis.rendered!r} does not "
                                   f"cover surface {token.word!r}")
    word = (token, token_index, stress_eligible)  # shared by every successor
    pruning = cfg.incremental_pruning
    floor = cfg.likelihood_floor
    budget = cfg.max_total_syllables
    successors: list[ScanState] = []
    for state in states:
        p_r = state.pending_p_r
        for analysis in analyses:
            # meld_probability's plain product, inlined for the common case
            p_l = analysis.p_l
            if (p_r.value == APOSTROPHE_VALUE
                    or p_l.value == APOSTROPHE_VALUE):
                m = meld_probability(p_r, p_l)
            else:
                m = p_r.value * p_l.value
            if m >= 1.0:
                branches = ((True, 1.0),)
            elif m <= 0.0:
                branches = ((False, 1.0),)
            else:
                branches = ((True, m), (False, 1.0 - m))
            for melded, branch_p in branches:
                likelihood = state.likelihood * analysis.weight * branch_p
                count = state.count + analysis.n - (1 if melded else 0)
                a4, a6, a10 = state.a4, state.a6, state.a10
                if stress_eligible:
                    # accents of ineligible words count nowhere
                    offsets = analysis.accents
                    if 4 - count in offsets:
                        a4 = True
                    if 6 - count in offsets:
                        a6 = True
                    if not a10 and count + offsets[0] == TENTH:
                        a10 = True
                if pruning:
                    if likelihood < floor:
                        continue
                    # trailing-word rule: once the tenth-syllable stress is
                    # placed, further words may not exceed the total budget
                    if state.a10 and count > budget:
                        continue
                node = _new_state(ScanState)
                node.likelihood = likelihood
                node.count = count
                node.pending_p_r = analysis.p_r
                node.a4 = a4
                node.a6 = a6
                node.a10 = a10
                node._parent = state
                node._analysis = analysis
                node._word = word
                node._melded = melded
                node._text = None
                successors.append(node)
    return successors


def finalize(states: list[ScanState], cfg: ScanConfig) -> VerseScansion:
    """Filter final states by the metric constraints and pick a winner."""
    require_a10, budget = cfg.require_a10, cfg.max_total_syllables
    # one pass keeps the admissible states and, among them, those with a
    # caesura: a10 when required, and at most the budget of syllables
    # unless the tenth-syllable stress is in the last word (versi
    # sdruccioli).  a10 only ever turns on, so it is there when the parent
    # lacks it; the root's a10 is False, so a state with a10 was made by
    # advance and has a parent
    admissible, caesura = [], []
    for s in states:
        a10 = s.a10
        if ((a10 or not require_a10)
                and (s.count <= budget or (a10 and not s._parent.a10))):
            admissible.append(s)
            if s.a4 or s.a6:
                caesura.append(s)
    if not admissible:
        best = max(states, key=lambda s: s.likelihood, default=None)
        return VerseScansion(None, (), _FAIL_NO_ACCENT10, tuple(states),
                             best_rejected=best)
    status = _OK
    if cfg.prefer_a4_or_a6:
        if caesura:
            admissible = caesura
        else:
            status = _WARN_NO_CAESURA
    if len(admissible) > 1:
        admissible = _rank(admissible, cfg.tie_epsilon)
    result = _new_scansion(VerseScansion)
    result.chosen = admissible[0]
    result.admissible = tuple(admissible)
    result.status = status
    result.final_states = tuple(states)
    result.unknown_key = None
    result.best_rejected = None
    return result


def _rank(states: list[ScanState], eps: float) -> list[ScanState]:
    """By likelihood; within eps, by fewer syllables, then by position."""
    by_likelihood = sorted(range(len(states)), key=lambda k: -states[k].likelihood)
    ranked: list[int] = []
    i = 0
    while i < len(by_likelihood):
        top, j = states[by_likelihood[i]].likelihood, i + 1
        while (j < len(by_likelihood)
               and top - states[by_likelihood[j]].likelihood <= eps):
            j += 1
        ranked += sorted(by_likelihood[i:j], key=lambda k: (states[k].count, k))
        i = j
    return [states[k] for k in ranked]


# every verse starts from this empty root, and a scan given no config
# uses this one; both are values, so one serves
_ROOT = ScanState()
_DEFAULT_CONFIG = ScanConfig()


def scan_verse(tokens: Iterable[Token], lex: Lexicon,
               cfg: ScanConfig | None = None) -> VerseScansion:
    """Scan one tokenized verse against a lexicon; an analysis that does
    not spell its word fails the verse, as FAIL_BAD_ANALYSIS."""
    cfg = cfg or _DEFAULT_CONFIG
    entries, ineligible = lex.entries, lex.stress_ineligible
    states = [_ROOT]
    index = 0  # of the word among the words, not among the tokens
    for token in tokens:
        if token.kind is _PUNCT:
            continue
        key = token.key
        analyses = entries.get(key)
        if analyses is None:
            return VerseScansion(None, (), ScanStatus.FAIL_UNKNOWN_WORD, (),
                                 unknown_key=key)
        try:
            states = advance(states, token, analyses, index,
                             key not in ineligible, cfg)
        except BadAnalysisError:
            return VerseScansion(None, (), ScanStatus.FAIL_BAD_ANALYSIS, ())
        if not states:
            return VerseScansion(None, (), _FAIL_NO_ACCENT10, ())
        index += 1
    if not index:  # no word at all
        return VerseScansion(None, (), _FAIL_NO_ACCENT10, ())
    return finalize(states, cfg)
