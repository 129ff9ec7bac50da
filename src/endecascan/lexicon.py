"""Metric word descriptions and the dictionary file format.

Every word form maps to one or more analyses; an analysis records the
syllable split, the accent offsets (negative, counted from the right
end of the word), the synalephe propensities of both extremities, and a
prior weight.  Multiple analyses of the same key model nondeterministic
syllabification (diphthong vs. hiatus readings) and their weights must
sum to one.

File format: UTF-8 lines as `data_lines` gives them (no blank or ``#``
line, no space at either end), each of six TAB-separated fields::

    key  weight  p_l  p_r  syllabification  accents

where propensities are decimals in [0, 1] or the literal ``A``
(apostrophe sentinel), the syllabification joins syllables with ``|``
and must spell the key, and accents is a comma-separated offset list,
primary first.  A line whose first field is ``@stress-ineligible`` lists
in its other fields the monosyllables that never count as metrical accents.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Mapping

WEIGHT_TOLERANCE = 1e-9
APOSTROPHE_VALUE = 2.0


class InputError(Exception):
    """Base of every error that makes an input unusable as a whole; the
    command line reports one as a single line and exits 2."""


class LexiconError(InputError):
    pass


class LexiconParseError(LexiconError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LexiconValidationError(LexiconError):
    pass


class UnknownWord(LexiconError):
    def __init__(self, key: str):
        super().__init__(f"word not in lexicon: {key!r}")
        self.key = key


class Value:
    """Base of the package's value types, plain slotted classes so that
    no command imports `dataclasses` and each value is built with plain
    slot stores.  Equality, hashing and repr read the fields a class lists
    in `_fields`, as a dataclass's would.  Values; never assign to one:
    unlike a frozen dataclass, nothing stops it."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Propensity(Value):
    """Synalephe propensity of one word extremity.

    value is a probability in [0, 1]; the sentinel value 2 marks an
    apostrophe, which melds with any partner that admits a synalephe
    at all.  Its text, as `str` gives it, is made once; it is not a
    field.  A value; never assign to one.
    """

    _fields = ("value",)
    __slots__ = _fields + ("_text",)

    def __init__(self, value: float):
        if not (0.0 <= value <= 1.0 or value == APOSTROPHE_VALUE):
            raise LexiconValidationError(f"propensity out of range: {value!r}")
        self.value = value
        self._text = "A" if value == APOSTROPHE_VALUE else repr(value)

    @property
    def is_apostrophe(self) -> bool:
        return self.value == APOSTROPHE_VALUE

    @classmethod
    def prob(cls, x: float) -> "Propensity":
        if not 0.0 <= x <= 1.0:
            raise LexiconValidationError(f"probability out of range: {x!r}")
        return cls(float(x))

    @classmethod
    def apostrophe(cls) -> "Propensity":
        return cls(APOSTROPHE_VALUE)

    def __str__(self) -> str:
        return self._text


PROB_ZERO = Propensity(0.0)
PROB_ONE = Propensity(1.0)


class MetricTuple(Value):
    """The per-word metric record: propensities, size, accent offset; a
    value, never assigned to."""

    __slots__ = _fields = ("p_l", "n", "a", "p_r")

    def __init__(self, p_l: Propensity, n: int, a: int, p_r: Propensity):
        if n < 1:
            raise LexiconValidationError(f"syllable count must be positive: {n}")
        if not -(n - 1) <= a <= 0:
            raise LexiconValidationError(f"accent offset {a} outside [{-(n - 1)}, 0]")
        self.p_l, self.n, self.a, self.p_r = p_l, n, a, p_r


class WordAnalysis(Value):
    """One syllabification variant of a word form.

    accents are offsets from the right end, primary first.  form, n and
    rendered (the syllables joined by bars, as a scansion renders them)
    are derived once, and so are the two pieces a scan's text appends for
    the word: apart (`" |" + rendered`, after a separate junction; the
    verse's first word drops its space) and melded (`" " + rendered`).
    None is a field, so equality, hashing and repr read the fields alone.
    A value; never assign to one.
    """

    _fields = ("syllables", "accents", "p_l", "p_r", "weight")
    __slots__ = _fields + ("form", "n", "rendered", "apart", "melded")

    def __init__(self, syllables: Iterable[str], accents: Iterable[int],
                 p_l: Propensity, p_r: Propensity, weight: float = 1.0):
        self.syllables = syllables = tuple(syllables)
        self.accents = accents = tuple(accents)
        self.p_l, self.p_r, self.weight = p_l, p_r, weight
        # syllables are strings, so "" is the only false one
        if not syllables or "" in syllables:
            raise LexiconValidationError("syllables must be nonempty")
        if not accents:
            raise LexiconValidationError("at least the primary accent is required")
        self.form = "".join(syllables)
        self.n = n = len(syllables)
        self.rendered = rendered = "|".join(syllables)
        self.apart = " |" + rendered
        self.melded = " " + rendered
        for o in accents:
            if not -(n - 1) <= o <= 0:
                raise LexiconValidationError(
                    f"accent offset {o} outside [{-(n - 1)}, 0] for {self.form!r}")
        if len(set(accents)) != len(accents):
            raise LexiconValidationError(f"duplicate accent offsets for {self.form!r}")
        if not 0.0 < weight <= 1.0:
            raise LexiconValidationError(f"weight must be in (0, 1]: {weight!r}")

    @property
    def tuple(self) -> MetricTuple:
        return MetricTuple(self.p_l, self.n, self.accents[0], self.p_r)


def _check_weights(key: str, analyses: Iterable[WordAnalysis]) -> tuple[WordAnalysis, ...]:
    analyses = tuple(analyses)
    if not analyses:
        raise LexiconValidationError(f"no analyses for {key!r}")
    total = sum(a.weight for a in analyses)
    if abs(total - 1.0) > WEIGHT_TOLERANCE:
        raise LexiconValidationError(f"weights for {key!r} sum to {total!r}, not 1")
    return analyses


class Lexicon(Value):
    """Map from normalized word key to its analyses; a value, never
    assigned to."""

    __slots__ = _fields = ("entries", "stress_ineligible")

    def __init__(self, entries: Mapping[str, tuple[WordAnalysis, ...]],
                 stress_ineligible: frozenset[str] = frozenset()):
        self.entries, self.stress_ineligible = entries, stress_ineligible

    def lookup(self, key: str) -> tuple[WordAnalysis, ...]:
        try:
            return self.entries[key]
        except KeyError:
            raise UnknownWord(key) from None

    def is_stress_eligible(self, key: str) -> bool:
        return key not in self.stress_ineligible

    def with_override(self, key: str, analyses: Iterable[WordAnalysis]) -> "Lexicon":
        """A lexicon identical except for key; self is left untouched."""
        new = dict(self.entries)
        new[key] = _check_weights(key, analyses)
        return Lexicon(new, self.stress_ineligible)


def build_lexicon(entries: Mapping[str, Iterable[WordAnalysis]],
                  stress_ineligible: Iterable[str] = ()) -> Lexicon:
    checked = {k: _check_weights(k, v) for k, v in entries.items()}
    return Lexicon(checked, frozenset(stress_ineligible))


def _parse_propensity(text: str, line_no: int) -> Propensity:
    if text == "A":
        return Propensity.apostrophe()
    try:
        value = float(text)
    except ValueError:
        raise LexiconParseError(f"bad propensity {text!r}", line_no) from None
    if not 0.0 <= value <= 1.0:
        raise LexiconParseError(f"propensity {text!r} outside [0, 1]", line_no)
    return Propensity(value)


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line neither blank nor a `#` comment,
    without the spaces at its ends; TABs stay, so an empty end field does too."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.strip()[:1] not in ("", "#"):
            yield line_no, line.strip(" ")


def parse_lexicon(text: str) -> Lexicon:
    """Parse the TAB-separated dictionary format described above."""
    entries: dict[str, list[WordAnalysis]] = {}
    ineligible: list[str] = []
    # a lexicon holds few distinct propensity, weight and accent-list
    # texts: parse each one once; every row still checks its own values
    propensities: dict[str, Propensity] = {}
    weights: dict[str, float] = {"": 1.0, "-": 1.0}
    accent_lists: dict[str, tuple[int, ...]] = {}
    for line_no, line in data_lines(text):
        fields = line.split("\t")
        if fields[0] == "@stress-ineligible":
            # checked as an entry's key is: one not lowercase matches no word
            for key in fields[1:]:
                if key != key.lower():
                    raise LexiconParseError(f"key {key!r} is not case-folded",
                                            line_no)
            ineligible.extend(fields[1:])
            continue
        if len(fields) != 6:
            raise LexiconParseError(f"expected 6 fields, got {len(fields)}", line_no)
        key, weight_s, p_l_s, p_r_s, sylls_s, accents_s = fields
        if not key:
            raise LexiconParseError("empty key", line_no)
        if key != key.lower():
            raise LexiconParseError(f"key {key!r} is not case-folded", line_no)
        weight = weights.get(weight_s)
        if weight is None:
            try:
                weight = weights[weight_s] = float(weight_s)
            except ValueError:
                raise LexiconParseError(f"bad weight {weight_s!r}", line_no) from None
        for p_s in (p_l_s, p_r_s):
            if p_s not in propensities:
                propensities[p_s] = _parse_propensity(p_s, line_no)
        p_l, p_r = propensities[p_l_s], propensities[p_r_s]
        if sylls_s.replace("|", "") != key:
            raise LexiconParseError(
                f"syllables {sylls_s!r} do not spell key {key!r}", line_no)
        accents = accent_lists.get(accents_s)
        if accents is None:
            try:
                accents = tuple(int(a) for a in accents_s.split(","))
            except ValueError:
                raise LexiconParseError(f"bad accent list {accents_s!r}",
                                        line_no) from None
            accent_lists[accents_s] = accents
        try:
            analysis = WordAnalysis(sylls_s.split("|"), accents, p_l, p_r, weight)
        except LexiconValidationError as exc:
            raise LexiconParseError(str(exc), line_no) from None
        entries.setdefault(key, []).append(analysis)
    try:
        return build_lexicon(entries, ineligible)
    except LexiconValidationError as exc:
        raise LexiconValidationError(f"invalid lexicon: {exc}") from None


def read_text(path: str) -> str:
    """A UTF-8 file's text, less one leading byte-order mark; another file
    is an OSError that names it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                      f"{exc.start})") from None


def bundled_text(name: str) -> str:
    """The text of a data file shipped in the package's `data` folder."""
    return read_text(os.path.join(os.path.dirname(__file__), "data", name))


def serialize_lexicon(lex: Lexicon) -> str:
    """Inverse of parse_lexicon; parse(serialize(lex)) == lex."""
    lines = ["# endecascan lexicon", "# key\tweight\tp_l\tp_r\tsyllabification\taccents"]
    if lex.stress_ineligible:
        lines.append("@stress-ineligible\t" + "\t".join(sorted(lex.stress_ineligible)))
    for key in lex.entries:
        for a in lex.entries[key]:
            lines.append("\t".join([
                key,
                repr(a.weight),
                str(a.p_l),
                str(a.p_r),
                a.rendered,
                ",".join(str(o) for o in a.accents),
            ]))
    return "\n".join(lines) + "\n"
