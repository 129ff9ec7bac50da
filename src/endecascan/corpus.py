"""Plain-text corpus ingestion, amendments, batch scanning, reports.

The expected input is a Gutenberg-style plain-text edition: canto
headers like ``Inferno: Canto I`` followed by blank-line-separated
tercets.  Anything before the first header is ignored.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .lexicon import Lexicon
from .scander import (BadAnalysisError, ScanConfig, ScanStatus, VerseScansion,
                      scan_verse)
from .tokenizer import Token, normalize_line, reconstruct, tokenize

_HEADER_RE = re.compile(r"^\s*(\w+)\s*:\s*Canto\s+([IVXLCDM]+)\s*$")

_ROMAN = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500, "M": 1000}


class CorpusFormatError(Exception):
    pass


class AmendmentMismatch(Exception):
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


@dataclass(frozen=True)
class Verse:
    line: int
    text: str


@dataclass(frozen=True)
class Canto:
    number: int
    verses: tuple[Verse, ...]


@dataclass(frozen=True)
class CorpusDocument:
    cantiche: tuple[tuple[str, tuple[Canto, ...]], ...]

    def iter_verses(self):
        for cantica, canti in self.cantiche:
            for canto in canti:
                for verse in canto.verses:
                    yield (cantica, canto.number, verse.line), verse.text

    @property
    def verse_count(self) -> int:
        return sum(1 for _ in self.iter_verses())


@dataclass(frozen=True)
class Amendment:
    cantica: str
    canto: int
    line: int
    original: str
    replacement: str
    note: str = ""


@dataclass(frozen=True)
class VerseRecord:
    location: tuple[str, int, int]
    text: str
    tokens: tuple[Token, ...]
    scansion: VerseScansion


@dataclass(frozen=True)
class ScanReport:
    records: tuple[VerseRecord, ...]

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

    @property
    def ok(self) -> list[tuple[str, int, int]]:
        return [r.location for r in self.records
                if r.scansion.status is ScanStatus.OK]

    @property
    def unknown_words(self) -> Counter:
        counts: Counter = Counter()
        for r in self.records:
            if r.scansion.status is ScanStatus.FAIL_UNKNOWN_WORD:
                counts[r.scansion.unknown_key] += 1
        return counts


def parse_corpus(text: str) -> CorpusDocument:
    """Structure a plain-text edition into cantiche, canti and verses."""
    cantiche: dict[str, list[Canto]] = {}
    order: list[str] = []
    current: tuple[str, int] | None = None
    verses: list[Verse] = []

    def close():
        if current is not None:
            name, number = current
            if name not in cantiche:
                cantiche[name] = []
                order.append(name)
            cantiche[name].append(Canto(number, tuple(verses)))

    for raw in text.splitlines():
        header = _HEADER_RE.match(raw)
        if header:
            close()
            current = (header.group(1), roman_to_int(header.group(2)))
            verses = []
            continue
        line = raw.strip()
        if not line:
            continue
        if current is None:
            continue  # Gutenberg-style preamble before the first header
        verses.append(Verse(len(verses) + 1, line))
    close()
    if not cantiche:
        raise CorpusFormatError("no canto header found")
    return CorpusDocument(tuple((name, tuple(cantiche[name])) for name in order))


def apply_amendments(doc: CorpusDocument, amendments: list[Amendment],
                     strict: bool = True) -> CorpusDocument:
    """Apply editorial amendments, each guarded by an exact-match check.
    strict=False skips an amendment whose verse is absent, and one whose
    original text is absent from its verse with a note on stderr."""
    index = {}
    for a in amendments:
        index.setdefault((a.cantica.lower(), a.canto, a.line), []).append(a)
    new_cantiche = []
    for cantica, canti in doc.cantiche:
        new_canti = []
        for canto in canti:
            new_verses = []
            for verse in canto.verses:
                text = verse.text
                for a in index.pop((cantica.lower(), canto.number, verse.line), []):
                    if a.original in text:
                        text = text.replace(a.original, a.replacement, 1)
                    elif strict:
                        raise AmendmentMismatch(a, text)
                    else:
                        print(f"endecascan: skipped {AmendmentMismatch(a, text)}",
                              file=sys.stderr)
                new_verses.append(verse if text == verse.text
                                  else Verse(verse.line, text))
            new_canti.append(Canto(canto.number, tuple(new_verses)))
        new_cantiche.append((cantica, tuple(new_canti)))
    if strict:
        for leftovers in index.values():
            raise AmendmentMismatch(leftovers[0], None)
    return CorpusDocument(tuple(new_cantiche))


def parse_amendments(text: str) -> list[Amendment]:
    """Read the amendment data file: cantica, canto, line, original,
    replacement, note as TAB-separated fields."""
    out = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 5:
            raise CorpusFormatError(f"amendment line {line_no}: expected 5+ fields")
        note = fields[5] if len(fields) > 5 else ""
        out.append(Amendment(fields[0], roman_to_int(fields[1]), int(fields[2]),
                             fields[3], fields[4], note))
    return out


def scan_records(doc: CorpusDocument, lex: Lexicon,
                 cfg: ScanConfig | None = None) -> Iterator[VerseRecord]:
    """Scan the verses one at a time; failures, a bad analysis among
    them, are recorded in each record's status, not raised."""
    cfg = cfg or ScanConfig()
    for location, text in doc.iter_verses():
        normalized = normalize_line(text)
        tokens = tuple(tokenize(normalized))
        try:
            scansion = scan_verse(tokens, lex, cfg)
        except BadAnalysisError:
            scansion = VerseScansion(None, (), ScanStatus.FAIL_BAD_ANALYSIS)
        yield VerseRecord(location, normalized, tokens, scansion)


def scan_document(doc: CorpusDocument, lex: Lexicon,
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
        previous = None
        gap = ""  # blank lines due before the next line, so none ends the file
        for record in records:
            cantica, canto, line = record.location
            if previous != (cantica, canto):
                if previous is not None:
                    gap += "\n"
                syl.write(f"{gap}{cantica}: Canto {int_to_roman(canto)}\n")
                gap = "\n"
                previous = (cantica, canto)
            syl.write(f"{gap}{render_scansion(record.scansion, record.tokens)}\n")
            gap = "\n" if line % 3 == 0 else ""
            chosen = record.scansion.chosen
            tsv.write("\t".join([
                cantica, str(canto), str(line),
                str(chosen.count) if chosen else "-",
                repr(chosen.likelihood) if chosen else "-",
                *(("1" if getattr(chosen, f) else "0") if chosen else "-"
                  for f in ("a4", "a6", "a10")),
                record.scansion.status.value,
                str(len(record.scansion.admissible)),
            ]) + "\n")
            if record.scansion.status is ScanStatus.WARN_NO_CAESURA:
                anom.write(f"{cantica} {int_to_roman(canto)},{line}\t{record.text}\n")
        if previous is None:
            syl.write("\n")
    return {"syllabified": syl_path, "report": tsv_path, "anomalies": anom_path}
