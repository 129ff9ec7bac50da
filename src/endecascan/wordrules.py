"""Default rules for building word analyses from raw forms, and the
draft lexicon `lex build` makes with them.

These rules bootstrap dictionary entries: standard splitting into
syllables, accent placement, and synalephe-propensity initialization.
They are deliberately rule-of-thumb; exotic forms (Latin, Provençal,
proparoxytones) are corrected by hand in the shipped dictionary, which
always wins over rule output.  Forms the shipped dictionary reads more
than one way get its variant set verbatim instead; so do the opt-in
families of nondet_words.tsv (the -ea imperfects and the bare io/mio
pronouns, which the dictionary reads one way), whose second readings
are only drafted with all_variants.
"""

from __future__ import annotations

import sys
from typing import Iterable, Mapping

from .lexicon import (PROB_ONE, PROB_ZERO, InputError, Lexicon,
                      LexiconValidationError, Propensity, Value, WordAnalysis,
                      build_lexicon, bundled_text, data_lines, parse_lexicon)
from .tokenizer import APOSTROPHE, lex_key

STRONG_VOWELS = set("aeoàèéòóâêô")
WEAK_VOWELS = set("iuìíîùúû")
DIERESIS_VOWELS = set("äëïöü")
ACCENTED_VOWELS = set("àèéìíòóùú")
VOWELS = STRONG_VOWELS | WEAK_VOWELS | DIERESIS_VOWELS

MUTES = set("bcdfgpt")
LIQUIDS = set("lr")
DIGRAPH_ONSETS = {"ch", "gh", "gn", "gl", "sc", "qu"}

# monosyllables that never take part in a synalephe on the right
NEVER_SYNALEPHE = frozenset(
    "be me fa fo mo po pro qua re sto te tu tra tre".split())

# monosyllables with a calibrated probabilistic treatment, (p_l, p_r)
PROBABILISTIC_MONOSYLLABLES: Mapping[str, tuple[float, float]] = {
    "a": (0.9, 0.2),
    "ad": (0.9, 0.2),
    "che": (0.0, 0.2),
    "chi": (0.0, 0.2),
    "da": (0.0, 0.1),
    "e": (0.9, 0.2),
    "fra": (0.0, 0.1),
    "fu": (0.0, 0.1),
    "io": (0.9, 0.0),
    "ho": (0.9, 0.1),
    "ha": (0.9, 0.1),
    "ma": (0.0, 0.1),
    "o": (0.9, 0.2),
    "qui": (0.0, 0.2),
    "se": (0.0, 0.2),
    "su": (0.0, 0.2),
    "va": (0.0, 0.1),
    # the copula melds leftward readily; a stressed monosyllable after a
    # vowel normally takes the dialephe instead
    "è": (0.1, 0.5),
}


class WordRuleError(InputError):
    pass


class RuleConfig(Value):
    """Tunable data behind the default analysis rules.  The calibrated
    monosyllables default to a copy of PROBABILISTIC_MONOSYLLABLES.  A
    value; never assign to one."""

    __slots__ = _fields = ("never_synalephe_monosyllables",
                           "probabilistic_monosyllables",
                           "accented_final_default_p_r", "diphthong_boundary_p",
                           "hiatus_exception_words")

    def __init__(self,
                 never_synalephe_monosyllables: frozenset[str] = NEVER_SYNALEPHE,
                 probabilistic_monosyllables:
                     Mapping[str, tuple[float, float]] | None = None,
                 accented_final_default_p_r: float = 0.1,
                 diphthong_boundary_p: float = 0.0,
                 hiatus_exception_words: frozenset[str] = frozenset()):
        if probabilistic_monosyllables is None:
            probabilistic_monosyllables = dict(PROBABILISTIC_MONOSYLLABLES)
        self.never_synalephe_monosyllables = never_synalephe_monosyllables
        self.probabilistic_monosyllables = probabilistic_monosyllables
        self.accented_final_default_p_r = accented_final_default_p_r
        self.diphthong_boundary_p = diphthong_boundary_p
        self.hiatus_exception_words = hiatus_exception_words
        overlap = never_synalephe_monosyllables & set(probabilistic_monosyllables)
        if overlap:
            raise LexiconValidationError(
                f"monosyllable sets overlap: {sorted(overlap)}")
        for p in (accented_final_default_p_r, diphthong_boundary_p):
            if not 0.0 <= p <= 1.0:
                raise LexiconValidationError(f"probability out of range: {p}")


def default_config() -> RuleConfig:
    """`RuleConfig()` with the bundled hiatus list."""
    return RuleConfig(hiatus_exception_words=frozenset(
        lex_key(line) for _, line in data_lines(bundled_text("hiatus_words.txt"))))


def load_rule_config(text: str) -> RuleConfig:
    """Read a config file's `data_lines`: `setting<TAB>value...`, where a
    trailing TAB adds an empty value.

    Settings the file does not name keep their `RuleConfig()` value, so
    the hiatus list starts empty rather than from the bundled one.
    """
    prob = dict(PROBABILISTIC_MONOSYLLABLES)
    hiatus: set[str] = set()
    settings = {}
    for line_no, line in data_lines(text):
        fields = line.split("\t")
        key, args = fields[0], fields[1:]
        if key == "never-synalephe":
            settings["never_synalephe_monosyllables"] = frozenset(
                lex_key(a) for a in args)
        elif key == "probabilistic":
            if len(args) != 3:
                raise WordRuleError(f"line {line_no}: expected word, p_l, p_r")
            prob[lex_key(args[0])] = (_number(line_no, key, args, 1),
                                      _number(line_no, key, args, 2))
        elif key == "hiatus":
            hiatus.update(lex_key(a) for a in args)
        elif key == "accented-final-p-r":
            settings["accented_final_default_p_r"] = _number(line_no, key, args, 0)
        elif key == "diphthong-p":
            settings["diphthong_boundary_p"] = _number(line_no, key, args, 0)
        else:
            raise WordRuleError(f"line {line_no}: unknown setting {key!r}")
    return RuleConfig(probabilistic_monosyllables=prob,
                      hiatus_exception_words=frozenset(hiatus), **settings)


def _number(line_no: int, key: str, args: list[str], index: int) -> float:
    """args[index] as a probability in [0, 1]."""
    try:
        value = float(args[index])
    except (ValueError, IndexError):
        raise WordRuleError(f"line {line_no}: {key} needs a number, got "
                            f"{args!r}") from None
    if not 0.0 <= value <= 1.0:
        raise WordRuleError(f"line {line_no}: {key} value {args[index]!r} "
                            "outside [0, 1]")
    return value


def _nuclei(low: str, hiatus_word: bool) -> list[tuple[int, int]]:
    """Locate the syllable nuclei of the keyed form low as (start, end)
    index ranges.

    A nucleus is a maximal run of vowels read as one sound, with the
    apostrophe standing in for an elided vowel.  Runs are broken at
    strong-strong contacts, around dieresis marks, before intervocalic
    glides, and (for words in the hiatus list) at weak-strong contacts
    either way as well.
    """
    n = len(low)
    nuclei: list[tuple[int, int]] = []
    i = 0
    while i < n:
        ch = low[i]
        if ch == APOSTROPHE:
            nuclei.append((i, i + 1))  # d', 'l: elided vowel
            i += 1
            continue
        if ch not in VOWELS:
            i += 1
            continue
        # spelling-only glide after palatal c/g/sc/gl (or u after q/g)
        prev = low[i - 1] if i else ""
        prev2 = low[i - 2] if i > 1 else ""
        if low[i + 1:i + 2] in VOWELS:
            marker = ((prev in ("c", "g") and prev2 != "s")
                      or prev2 + prev in ("sc", "gl"))
            # hiatus-list words read the glide as a full vowel (coscienza,
            # region) except after a doubled consonant (viaggio)
            if hiatus_word and prev2 != prev:
                marker = False
            if (ch == "i" and marker) or (ch == "u" and prev in ("q", "g")):
                i += 1
                continue
        # collect a vowel run and split it into nuclei
        start = i
        while i < n and low[i] in VOWELS:
            i += 1
        for s, e in _split_run(low[start:i], hiatus_word):
            nuclei.append((start + s, start + e))
        # a trailing apostrophe joins the final nucleus (cu', vuo')
        if i < n and low[i] == APOSTROPHE:
            nuclei[-1] = (nuclei[-1][0], i + 1)
            i += 1
    return nuclei


def _split_run(run: str, hiatus_word: bool) -> list[tuple[int, int]]:
    bounds = []
    start = 0
    for j in range(1, len(run)):
        a, b = run[j - 1], run[j]
        # a dieresis, strong-strong or identical vowels, a glide before the
        # next vowel of the run, and (hiatus words) a weak-strong contact
        if (a in DIERESIS_VOWELS or b in DIERESIS_VOWELS
                or (a in STRONG_VOWELS and b in STRONG_VOWELS) or a == b
                or (b in WEAK_VOWELS and j + 1 < len(run))
                or (hiatus_word and (a in WEAK_VOWELS) != (b in WEAK_VOWELS))):
            bounds.append((start, j))
            start = j
    bounds.append((start, len(run)))
    return bounds


# the longest cluster _legal_onset accepts: an s, a legal onset of up to
# three letters and a glide (sgliu, sstri)
_MAX_ONSET = 5


def _legal_onset(c: str) -> bool:
    """Whether the lowercase consonant cluster c can open a syllable."""
    # a trailing i/u here is a palatal/velar spelling glide (cia, gui, ...):
    # every other vowel is in a nucleus
    if c[-1:] in ("i", "u"):
        c = c[:-1]
    if len(c) <= 1:
        return True
    if c in DIGRAPH_ONSETS:
        return True
    if len(c) == 2:
        if c[0] in MUTES and c[1] in LIQUIDS:
            return True
        return c[0] == "s" and c[1] != "s"  # s + consonant attaches rightward
    # s- prefixes whatever legal onset follows (o|scu|ra, no|stra)
    if c[0] == "s" and len(c) <= 4:
        return _legal_onset(c[1:])
    return False


def split_syllables(form: str, cfg: RuleConfig) -> list[str]:
    """Split a word form into syllables.

    Onsets are maximized within the bounds of Italian phonotactics;
    apostrophes count as elided vowels and never split away from their
    consonants; a dieresis always opens a hiatus.
    """
    if not form:
        raise WordRuleError("empty word form")
    low = lex_key(form)  # one character per character of form
    nuclei = _nuclei(low, low in cfg.hiatus_exception_words)
    if not nuclei:
        print(f"endecascan: no vowel in {form!r}, treating as one syllable",
              file=sys.stderr)
        return [form]
    boundaries = [0]
    for k in range(len(nuclei) - 1):
        gap_start = nuclei[k][1]
        gap_end = nuclei[k + 1][0]
        # longest legal onset wins; the rest stays in the coda.  No onset
        # is longer than _MAX_ONSET, so only a gap's last cuts are tried
        cut = gap_end
        for candidate in range(max(gap_start, gap_end - _MAX_ONSET), gap_end):
            if _legal_onset(low[candidate:gap_end]):
                cut = candidate
                break
        boundaries.append(cut)
    boundaries.append(len(form))
    return [form[boundaries[k]:boundaries[k + 1]] for k in range(len(boundaries) - 1)]


def locate_accent(form: str, syllables: list[str] | tuple[str, ...]) -> list[int]:
    """Primary accent offset, plus the -mente secondary when it applies.

    The primary defaults to the penultimate syllable; a written accent
    or a final consonant (truncated form) moves it; dieresis marks are
    not accents.  Adverbs in -mente get a secondary stress on their stem.
    """
    low = lex_key(form)
    sylls = [lex_key(syl) for syl in syllables]
    n = len(sylls)
    primary = None
    for idx, syl in enumerate(sylls):
        if any(ch in ACCENTED_VOWELS for ch in syl):
            primary = idx - (n - 1)
    if primary is None:
        last = low.rstrip(APOSTROPHE)
        final_nucleus = _nucleus(sylls[-1], -1)
        if n == 1:
            primary = 0
        elif sylls[-1].endswith(APOSTROPHE) and sylls[-1][0] not in VOWELS:
            primary = -1  # tan|t', on|d': stress stays left of the elision
        elif last and last[-1] not in VOWELS:
            primary = 0  # truncated form, stress on the final syllable
        elif len(final_nucleus) >= 2 and final_nucleus[-1] in "iu":
            primary = 0  # falling final diphthong: trovai, altrui
        else:
            primary = -1
    accents = [primary]
    if low.endswith("mente") and n >= 4:
        stem = low[: len(low) - 5]
        if stem and stem[-1] in VOWELS:
            stem_offset = locate_accent(stem, sylls[:-2])[0]
        else:
            stem_offset = -1  # elided stem (mirabil-) keeps its penult stress
        # the stem's n - 2 syllables put its accent in [-(n - 3), 0]
        secondary = stem_offset - 2
        if secondary != primary:
            accents.append(secondary)
    return accents


def _nucleus(syllable: str, index: int) -> str:
    """The syllable's first (index 0) or last (-1) nucleus, lowercase and
    without its apostrophe; the nucleus scan skips spelling glides."""
    low = lex_key(syllable)
    spans = _nuclei(low, hiatus_word=False)
    if not spans:
        return ""
    s, e = spans[index]
    return low[s:e].rstrip(APOSTROPHE)


def init_propensities(form: str, syllables: list[str] | tuple[str, ...],
                      cfg: RuleConfig) -> tuple[Propensity, Propensity]:
    """Initial left/right synalephe propensities for a word form, each
    side from its own cascade, where the first match wins."""
    if not syllables:
        raise WordRuleError("empty syllable list")
    low = lex_key(form)
    return _left_propensity(low, syllables, cfg), _right_propensity(low, syllables, cfg)


def _left_propensity(low: str, syllables: list[str] | tuple[str, ...],
                     cfg: RuleConfig) -> Propensity:
    """Apostrophe sentinel, calibrated monosyllable, initial i-diphthong,
    plain vowel/consonant contact."""
    if low.startswith(APOSTROPHE):
        return Propensity.apostrophe()
    if len(syllables) == 1 and low in cfg.probabilistic_monosyllables:
        return Propensity.prob(cfg.probabilistic_monosyllables[low][0])
    first = _nucleus(syllables[0], 0)
    if len(first) >= 2 and first[0] == "i":
        return Propensity.prob(cfg.diphthong_boundary_p)
    first = low[1:2] if low.startswith("h") else low[:1]  # a mute h: ho, ha
    return PROB_ONE if first in VOWELS else PROB_ZERO


def _right_propensity(low: str, syllables: list[str] | tuple[str, ...],
                      cfg: RuleConfig) -> Propensity:
    """Apostrophe sentinel, never-synalephe or calibrated monosyllable,
    accented final vowel, final diphthong, plain vowel/consonant contact."""
    if low.endswith(APOSTROPHE):
        return Propensity.apostrophe()
    if len(syllables) == 1:  # RuleConfig keeps the two sets apart
        if low in cfg.never_synalephe_monosyllables:
            return PROB_ZERO
        if low in cfg.probabilistic_monosyllables:
            return Propensity.prob(cfg.probabilistic_monosyllables[low][1])
    if low[-1] in ACCENTED_VOWELS:
        return Propensity.prob(cfg.accented_final_default_p_r)
    # a final diphthong carrying the stress refuses the synalephe; a
    # hiatus-list word read contracted keeps its stress in the cluster
    if len(_nucleus(syllables[-1], -1)) >= 2 and (
            low in cfg.hiatus_exception_words
            or locate_accent(low, syllables)[0] == 0):
        return Propensity.prob(cfg.diphthong_boundary_p)
    return PROB_ONE if low[-1] in VOWELS else PROB_ZERO


def build_analyses(form: str, cfg: RuleConfig,
                   nondet: Mapping[str, Iterable[WordAnalysis]] | None = None,
                   ) -> list[WordAnalysis]:
    """Compose the three rules into dictionary entries for a form, drafted
    from its key so that the syllables spell the key.

    Forms listed in the nondeterministic table take their entries from
    it verbatim; everything else gets a single weight-1 analysis.
    """
    key = lex_key(form)
    if nondet and key in nondet:
        return list(nondet[key])
    syllables = split_syllables(key, cfg)
    p_l, p_r = init_propensities(key, syllables, cfg)
    return [WordAnalysis(syllables, locate_accent(key, syllables), p_l, p_r, 1.0)]


def load_nondet_table(seed: Lexicon, all_variants: bool = False
                      ) -> dict[str, tuple[WordAnalysis, ...]]:
    """The keys a draft takes verbatim: each key that the dictionary seed
    reads more than one way, and each opt-in family of the bundled
    nondet_words.tsv, whole with all_variants and else as seed reads it."""
    optin = parse_lexicon(bundled_text("nondet_words.tsv")).entries
    table = {key: v for key, v in seed.entries.items() if len(v) > 1}
    for key, variants in optin.items():
        table[key] = variants if all_variants else seed.lookup(key)
    return table


def build_draft_lexicon(words: Iterable[str], cfg: RuleConfig,
                        all_variants: bool = False) -> Lexicon:
    """Draft entries for words, keyed as the scanner keys them; the
    nondeterministic table and the stress-ineligible keys come from the
    bundled dictionary."""
    seed = parse_lexicon(bundled_text("seed.lex"))
    nondet = load_nondet_table(seed, all_variants)
    entries: dict[str, list[WordAnalysis]] = {}
    for word in words:
        key = lex_key(word)
        if key not in entries:
            entries[key] = build_analyses(key, cfg, nondet)
    return build_lexicon(entries, seed.stress_ineligible & set(entries))
