from collections import Counter

import pytest

from endecascan.analysis import (Outcome, Side, classify_word, histogram_tsv,
                                 occurrences_tsv, pattern_histogram)
from endecascan.corpus import parse_corpus, scan_document
from endecascan.scander import ScanConfig, scan_verse
from endecascan.tokenizer import normalize_line, tokenize

PORTO_FIXTURE = """Inferno: Canto XXII

sì che, stracciando, ne portò un lacerto.

Inferno: Canto XXVII

A Minòs mi portò; e quelli attorse
"""


@pytest.fixture(scope="module")
def porto_report(seed_lexicon):
    return scan_document(parse_corpus(PORTO_FIXTURE), seed_lexicon, ScanConfig())


def test_classify_word_synalephe_and_dialephe(porto_report):
    occurrences = classify_word("portò", porto_report)
    right = {(o.location[0], o.location[1]): o.outcome
             for o in occurrences if o.side is Side.RIGHT}
    assert right[("Inferno", 22)] is Outcome.SYNALEPHE
    assert right[("Inferno", 27)] is Outcome.DIALEPHE
    lefts = [o for o in occurrences if o.side is Side.LEFT]
    assert all(o.outcome is Outcome.DIALEPHE for o in lefts)


def test_classify_word_never_synalephe(seed_lexicon, canto_document):
    report = scan_document(canto_document, seed_lexicon, ScanConfig())
    occurrences = classify_word("tra", report)
    assert occurrences
    assert all(o.outcome is Outcome.DIALEPHE for o in occurrences)


def test_classify_absent_word(porto_report):
    assert classify_word("assente", porto_report) == []


def scan(text, lex):
    return scan_verse(tokenize(normalize_line(text)), lex, ScanConfig())


def profile(pattern):
    return tuple(mark == "+" for mark in pattern)


def test_accent_pattern_line_one(seed_lexicon):
    chosen = scan("Nel mezzo del cammin di nostra vita", seed_lexicon).chosen
    assert chosen.stresses() == profile("-+---+-+-+-")


def test_accent_pattern_includes_tenth(seed_lexicon, canto_document):
    report = scan_document(canto_document, seed_lexicon, ScanConfig())
    for record in report.records:
        stresses = record.scansion.chosen.stresses()
        assert stresses[9], record.location
        assert len(stresses) == record.scansion.chosen.count


def test_accent_pattern_one_word_verse(seed_lexicon):
    tokens = tokenize(normalize_line("Amore"))
    scansion = scan_verse(tokens, seed_lexicon, ScanConfig(require_a10=False))
    assert scansion.chosen.stresses() == profile("-+-")


def test_accent_pattern_secondary_flag(seed_lexicon):
    chosen = scan("con tre gole caninamente latra", seed_lexicon).chosen
    assert not chosen.stresses()[5]
    assert chosen.stresses(include_secondary=True)[5]


def test_pattern_histogram_totals(seed_lexicon, canto_document):
    report = scan_document(canto_document, seed_lexicon, ScanConfig())
    histogram = pattern_histogram(report)
    assert sum(histogram.values()) == 136
    counts = list(histogram.values())
    assert counts == sorted(counts, reverse=True)


def test_pattern_histogram_empty(seed_lexicon):
    report = scan_document(parse_corpus("Inferno: Canto I\n"), seed_lexicon,
                           ScanConfig())
    assert pattern_histogram(report) == {}


def test_pattern_histogram_counts_duplicates(seed_lexicon):
    text = ("Inferno: Canto I\n\n"
            "Nel mezzo del cammin di nostra vita\n"
            "selva oscura\n"
            "Nel mezzo del cammin di nostra vita\n")
    report = scan_document(parse_corpus(text), seed_lexicon, ScanConfig())
    assert report.failures == [("Inferno", 1, 2)]  # skipped: no chosen state
    assert pattern_histogram(report) == {"-+---+-+-+-": 2}


@pytest.mark.parametrize("include_secondary", [False, True],
                         ids=["primary", "secondary"])
def test_pattern_histogram_matches_the_accent_marks(seed_lexicon,
                                                    canto_document,
                                                    include_secondary):
    # the canto's words have no secondary accent; caninamente has one
    extra = parse_corpus("Inferno: Canto VI\n\n"
                         "con tre gole caninamente latra\n")
    records = [*scan_document(canto_document, seed_lexicon, ScanConfig()),
               *scan_document(extra, seed_lexicon, ScanConfig())]
    counts = Counter()
    for record in records:
        chosen = record.scansion.chosen
        if chosen is None:
            continue
        stressed = {m.position for m in chosen.accents
                    if m.eligible and (m.primary or include_secondary)}
        counts["".join("+" if i in stressed else "-"
                       for i in range(1, chosen.count + 1))] += 1
    expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    assert list(pattern_histogram(records, include_secondary).items()) == expected
    assert pattern_histogram(records, True) != pattern_histogram(records)


def test_tsv_serializers(porto_report):
    occurrences = classify_word("portò", porto_report)
    tsv = occurrences_tsv(occurrences)
    assert tsv.startswith("cantica\tcanto\tline\tword\tside\toutcome\tneighbor")
    assert "synalephe" in tsv and "dialephe" in tsv
    histogram = pattern_histogram(porto_report)
    assert histogram_tsv(histogram).startswith("pattern\tcount\n")
