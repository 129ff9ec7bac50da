"""Plain-text corpus ingestion, amendments, batch scanning, reports.

The expected input is a Gutenberg-style plain-text edition: canto
headers like ``Inferno: Canto I`` followed by blank-line-separated
tercets.  Anything before the first header is ignored.  A parsed
corpus is a flat tuple of located verses, read front to back.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .lexicon import InputError, Lexicon, Value, data_lines
from .scander import ScanConfig, ScanStatus, VerseScansion, scan_verse
from .tokenizer import (Token, TokenKind, lex_key, normalize_line, reconstruct,
                        tokenize)

HEADER_RE = re.compile(r"^\s*(\w+)\s*:\s*Canto\s+([IVXLCDM]+)\s*$")

_ROMAN = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500, "M": 1000}


class CorpusFormatError(InputError):
    pass


class AmendmentMismatch(InputError):
    def __init__(self, amendment: "Amendment", found: str | None):
        where = f"{amendment.cantica} {amendment.canto},{amendment.line}"
        super().__init__(
            f"amendment at {where}: expected {amendment.original!r} in {found!r}")
        self.amendment = amendment
        self.found = found


def roman_to_int(value: str) -> int:
    total = 0
    prev = 0
    for ch in reversed(value.upper()):
        n = _ROMAN.get(ch)
        if n is None:
            raise CorpusFormatError(f"bad roman numeral {value!r}")
        total = total - n if n < prev else total + n
        prev = max(prev, n)
    # standard form: 1 to 3999, each value written one way
    if not 0 < total < 4000 or int_to_roman(total) != value.upper():
        raise CorpusFormatError(f"non-canonical roman numeral {value!r}")
    return total


def int_to_roman(value: int) -> str:
    pairs = [(1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"),
             (90, "XC"), (50, "L"), (40, "XL"), (10, "X"), (9, "IX"),
             (5, "V"), (4, "IV"), (1, "I")]
    out = []
    for n, sym in pairs:
        while value >= n:
            out.append(sym)
            value -= n
    return "".join(out)


class Verse(NamedTuple):
    """One verse and its location; a corpus is a tuple of them."""
    cantica: str
    canto: int
    line: int
    text: str


# builds a Verse from its four fields without the NamedTuple's Python
# __new__, which only packs its arguments into this same tuple: about
# 0.17 µs less a line on Python 3.11, some 1% of a comedy-batch round
_new_verse = tuple.__new__
_WARN_NO_CAESURA = ScanStatus.WARN_NO_CAESURA  # bound once, read per verse


class Amendment(Value):
    """One editorial amendment: in the verse at cantica, canto, line,
    original becomes replacement.  A value; never assign to one."""

    __slots__ = _fields = ("cantica", "canto", "line", "original",
                           "replacement", "note")

    def __init__(self, cantica: str, canto: int, line: int, original: str,
                 replacement: str, note: str = ""):
        self.cantica, self.canto, self.line = cantica, canto, line
        self.original, self.replacement, self.note = original, replacement, note


class VerseRecord(Value):
    """One scanned verse: its location, normalized text, tokens and
    scansion.  A value; never assign to one."""

    __slots__ = _fields = ("location", "text", "tokens", "scansion")

    def __init__(self, location: tuple[str, int, int], text: str,
                 tokens: tuple[Token, ...], scansion: VerseScansion):
        self.location, self.text, self.tokens = location, text, tokens
        self.scansion = scansion


class ScanReport(Value):
    """The records of a whole document, in order; a value, never
    assigned to."""

    __slots__ = _fields = ("records",)

    def __init__(self, records: tuple[VerseRecord, ...]):
        self.records = records

    def __iter__(self) -> Iterator[VerseRecord]:
        return iter(self.records)

    @property
    def anomalies(self) -> list[tuple[str, int, int]]:
        return [r.location for r in self.records
                if r.scansion.status is ScanStatus.WARN_NO_CAESURA]

    @property
    def failures(self) -> list[tuple[str, int, int]]:
        return [r.location for r in self.records
                if not r.scansion.status.is_admissible]


def parse_corpus(text: str) -> tuple[Verse, ...]:
    """One Verse per line of a plain-text edition, numbered from 1 after
    each header; the cantos of a cantica stay together, in order of its
    first header.  A repeated header is noted on stderr: its verses
    repeat the locations of the earlier run."""
    cantiche: dict[str, list[Verse]] = {}
    seen = set()
    verses = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        # a header holds the literal "Canto": other lines skip the match
        header = "Canto" in raw and HEADER_RE.match(raw)
        if header:
            try:
                cantica, canto = header.group(1), roman_to_int(header.group(2))
            except CorpusFormatError as exc:
                raise CorpusFormatError(f"line {line_no}: {exc}") from None
            if (cantica, canto) in seen:
                print(f"endecascan: repeated header {raw.strip()!r} at line "
                      f"{line_no}; its verses repeat locations", file=sys.stderr)
            seen.add((cantica, canto))
            verses = cantiche.setdefault(cantica, [])
            line = 0
            continue
        stripped = raw.strip()
        if stripped and verses is not None:  # lines before the first header are preamble
            line += 1
            verses.append(_new_verse(Verse, (cantica, canto, line, stripped)))
    if verses is None:
        raise CorpusFormatError("no canto header found")
    flat: list[Verse] = []
    for group in cantiche.values():
        flat += group
    return tuple(flat)


def apply_amendments(doc: tuple[Verse, ...], amendments: list[Amendment],
                     strict: bool = True) -> tuple[Verse, ...]:
    """Apply editorial amendments, each guarded by an exact-match check.
    strict=False skips an amendment whose verse is absent, and one whose
    original text is absent from its verse with a note on stderr."""
    index = {}
    for a in amendments:
        index.setdefault((a.cantica.lower(), a.canto, a.line), []).append(a)
    out = []
    for verse in doc:
        cantica, canto, line, text = verse
        for a in index.pop((cantica.lower(), canto, line), ()):
            if a.original in text:
                text = text.replace(a.original, a.replacement, 1)
            elif strict:
                raise AmendmentMismatch(a, text)
            else:
                print(f"endecascan: skipped {AmendmentMismatch(a, text)}",
                      file=sys.stderr)
        out.append(verse if text == verse.text else verse._replace(text=text))
    if strict:
        for leftovers in index.values():
            raise AmendmentMismatch(leftovers[0], None)
    return tuple(out)


def parse_amendments(text: str) -> list[Amendment]:
    """Read the amendment file's `data_lines`: cantica, canto, line,
    original, replacement, note as TAB-separated fields."""
    out = []
    for line_no, line in data_lines(text):
        fields = line.split("\t")
        if len(fields) < 5:
            raise CorpusFormatError(f"amendment line {line_no}: expected 5+ fields")
        try:
            canto, verse_line = roman_to_int(fields[1]), int(fields[2])
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"amendment line {line_no}: {exc}") from None
        except ValueError:
            raise CorpusFormatError(f"amendment line {line_no}: bad verse "
                                    f"number {fields[2]!r}") from None
        note = fields[5] if len(fields) > 5 else ""
        out.append(Amendment(fields[0], canto, verse_line, fields[3], fields[4],
                             note))
    return out


def scan_records(doc: tuple[Verse, ...], lex: Lexicon,
                 cfg: ScanConfig | None = None,
                 key: str | None = None) -> Iterator[VerseRecord]:
    """Scan the verses one at a time; failures are recorded in each
    record's status, not raised.

    With no key every verse is normalized, tokenized and scanned.  Given
    a lexicon key, only the verses with a word token of that key are
    scanned and yielded: the others cannot hold an occurrence of the
    word.  With ς read as σ on both sides, a verse whose keyed raw text
    lacks the key's longest run of letters is dropped before it is
    normalized; the others are tokenized and checked token by token."""
    if key is not None:
        # normalizing rewrites only apostrophe-like marks and whitespace,
        # so each letter run of a word stands unchanged in its raw verse;
        # keying a whole verse differs from keying one word only in where
        # Greek capital sigma becomes final ς, so ς and σ count as one
        run = max("".join(ch if ch.isalpha() else " " for ch in key).split(),
                  key=len, default="").replace("ς", "σ")
        doc = [v for v in doc if run in lex_key(v.text).replace("ς", "σ")]
    for verse in doc:
        normalized = normalize_line(verse.text)
        tokens = tuple(tokenize(normalized))
        if key is not None:
            for t in tokens:
                # punctuation keys as "", so its kind is checked too
                if t.key == key and t.kind is TokenKind.WORD:
                    break
            else:
                continue
        yield VerseRecord(verse[:3], normalized, tokens,
                          scan_verse(tokens, lex, cfg))


def scan_document(doc: tuple[Verse, ...], lex: Lexicon,
                  cfg: ScanConfig | None = None) -> ScanReport:
    """Every record of scan_records, kept for random access."""
    return ScanReport(tuple(scan_records(doc, lex, cfg)))


FAILURE_MARKER = "??"


def render_scansion(scansion: VerseScansion, tokens: Iterable[Token]) -> str:
    """Rendered syllabification of the chosen state.

    When no state was chosen the original text comes back prefixed with
    a failure marker, so batch output keeps its line count.
    """
    if scansion.chosen is not None:
        return scansion.chosen.text
    return f"{FAILURE_MARKER} {reconstruct(tokens)}"


def write_outputs(records: Iterable[VerseRecord], sink: str | Path,
                  name: str = "corpus") -> dict[str, Path]:
    """Write the syllabified text, the per-verse TSV and the anomaly list,
    one record at a time as the records arrive."""
    sink = Path(sink)
    sink.mkdir(parents=True, exist_ok=True)
    syl_path = sink / f"{name}.syl.txt"
    tsv_path = sink / f"{name}.report.tsv"
    anom_path = sink / f"{name}.anomalies.txt"
    with open(syl_path, "w", encoding="utf-8") as syl, \
            open(tsv_path, "w", encoding="utf-8") as tsv, \
            open(anom_path, "w", encoding="utf-8") as anom:
        tsv.write("cantica\tcanto\tline\tcount\tlikelihood\ta4\ta6\ta10\t"
                  "status\tadmissible\n")
        previous_cantica = previous_canto = None
        gap = ""  # blank lines due before the next line, so none ends the file
        for record in records:
            cantica, canto, line = record.location
            scansion = record.scansion
            if canto != previous_canto or cantica != previous_cantica:
                if previous_canto is not None:
                    gap += "\n"
                syl.write(f"{gap}{cantica}: Canto {int_to_roman(canto)}\n")
                gap = "\n"
                previous_cantica, previous_canto = cantica, canto
            syl.write(f"{gap}{render_scansion(scansion, record.tokens)}\n")
            gap = "\n" if line % 3 == 0 else ""
            chosen = scansion.chosen
            if chosen is None:
                scores = "-\t-\t-\t-\t-"
            else:
                scores = (f"{chosen.count}\t{chosen.likelihood!r}\t"
                          f"{'1' if chosen.a4 else '0'}\t"
                          f"{'1' if chosen.a6 else '0'}\t"
                          f"{'1' if chosen.a10 else '0'}")
            # a member's plain _value_ attribute: `value` is a property
            tsv.write(f"{cantica}\t{canto}\t{line}\t{scores}\t"
                      f"{scansion.status._value_}\t{len(scansion.admissible)}\n")
            if scansion.status is _WARN_NO_CAESURA:
                anom.write(f"{cantica} {int_to_roman(canto)},{line}\t{record.text}\n")
        if previous_canto is None:
            syl.write("\n")
    return {"syllabified": syl_path, "report": tsv_path, "anomalies": anom_path}
