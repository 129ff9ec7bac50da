import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endecascan import corpus
from endecascan.analysis import classify_word, pattern_histogram
from endecascan.cli import main
from endecascan.corpus import (Amendment, AmendmentMismatch, CorpusFormatError,
                               Verse, VerseRecord, apply_amendments, int_to_roman,
                               parse_amendments, parse_corpus, render_scansion,
                               roman_to_int, scan_document, scan_records,
                               write_outputs)
from endecascan.lexicon import build_lexicon
from endecascan.scander import ScanConfig, ScanState, ScanStatus, scan_verse
from endecascan.tokenizer import normalize_line, tokenize, word_tokens
from test_scander import fixed_lines

DATA = pathlib.Path(__file__).parent / "data"
BUNDLED_AMENDMENTS = (pathlib.Path(__file__).parents[1] / "src" / "endecascan"
                      / "data" / "amendments.tsv")


def test_roman_numerals():
    assert roman_to_int("I") == 1
    assert roman_to_int("XXIV") == 24
    assert roman_to_int("CXXXVI") == 136
    with pytest.raises(CorpusFormatError):
        roman_to_int("Q")
    for numeral in ("IIII", "IL", "MMMMM", "IC", "VX", "XIIX", ""):
        with pytest.raises(CorpusFormatError):
            roman_to_int(numeral)
    assert all(roman_to_int(int_to_roman(n)) == n for n in range(1, 4000))


def test_parse_canto(canto_document):
    assert {v.cantica for v in canto_document} == {"Inferno"}
    assert {v.canto for v in canto_document} == {1}
    assert len(canto_document) == 136
    assert canto_document[0].text == "Nel mezzo del cammin di nostra vita"
    assert [v.line for v in canto_document] == list(range(1, 137))


def test_parse_empty_corpus_errors():
    with pytest.raises(CorpusFormatError):
        parse_corpus("")
    with pytest.raises(CorpusFormatError):
        parse_corpus("just some text\nwithout any header\n")


def test_parse_tolerates_trailing_blank_lines():
    text = "Inferno: Canto I\n\nprima riga\nseconda riga\n\n\n"
    doc = parse_corpus(text)
    assert len(doc) == 2
    assert doc == parse_corpus(text.rstrip("\n") + "\n\n")


def test_corpus_order_locations_and_amendments(seed_lexicon):
    def located(doc):
        return [(r.location, r.text) for r in scan_records(doc, seed_lexicon)]

    doc = parse_corpus("Edizione di prova, prima di ogni canto\n\n"
                       "Inferno: Canto I\n\nuno\ndue\n\n"
                       "Purgatorio: Canto I\n\ntre\n\n"
                       "Inferno: Canto II\n\nquattro\n\n"
                       "Inferno: Canto II\n\nquattro ancora\ncinque\n")
    # cantos grouped by each cantica's first header; lines restart at
    # every header, and a repeated header keeps both runs
    assert located(doc) == [
        (("Inferno", 1, 1), "uno"), (("Inferno", 1, 2), "due"),
        (("Inferno", 2, 1), "quattro"), (("Inferno", 2, 1), "quattro ancora"),
        (("Inferno", 2, 2), "cinque"), (("Purgatorio", 1, 1), "tre")]
    # only the first verse at a location is amended
    amended = apply_amendments(doc, [Amendment("Inferno", 2, 1, "quattro", "4")])
    assert [text for _, text in located(amended)] == [
        "uno", "due", "4", "quattro ancora", "cinque", "tre"]
    assert located(parse_corpus("Inferno: Canto I\n\n\n")) == []


def test_distinct_headers_give_no_note(capsys):
    canto = (DATA / "inferno_i.txt").read_text("utf-8")
    body = canto.split("\n", 1)[1]
    comedy = "\n".join(f"{cantica}: Canto {int_to_roman(n)}\n{body}"
                       for cantica, count in (("Inferno", 34), ("Purgatorio", 33),
                                              ("Paradiso", 33))
                       for n in range(1, count + 1))
    assert len(parse_corpus(canto)) == 136
    assert len(parse_corpus(comedy)) == 13_600
    assert capsys.readouterr().err == ""


SAMPLE = """Inferno: Canto XX

e suol di state talor essere grama.

Purgatorio: Canto IX

ch’io drizzava spesso il viso in vano.

Purgatorio: Canto XXIV

Tesëo combatter co’ doppi petti;
"""


def shipped_amendments():
    amendments = parse_amendments(BUNDLED_AMENDMENTS.read_text("utf-8"))
    # the sample file holds each amended verse as line 1 of its canto
    return [Amendment(a.cantica, a.canto, 1, a.original, a.replacement, a.note)
            for a in amendments]


def test_apply_shipped_amendments():
    doc = parse_corpus(SAMPLE)
    amended = apply_amendments(doc, shipped_amendments())
    texts = [verse.text for verse in amended]
    assert texts[0] == "e suol di state talor esser grama."
    assert texts[1] == "ch’ïo drizzava spesso il viso in vano."
    assert texts[2] == "Tesëo combattér co’ doppi petti;"
    # the original document is untouched
    assert doc[0].text.endswith("essere grama.")


def test_amendments_guard_against_drift():
    doc = parse_corpus(SAMPLE)
    amended = apply_amendments(doc, shipped_amendments())
    with pytest.raises(AmendmentMismatch):
        apply_amendments(amended, shipped_amendments())  # no longer matches
    with pytest.raises(AmendmentMismatch):
        apply_amendments(doc, [Amendment("Inferno", 20, 1, "not present", "x")])
    with pytest.raises(AmendmentMismatch):
        apply_amendments(doc, [Amendment("Inferno", 99, 3, "essere", "esser")])


def test_amendment_rows_lose_the_spaces_at_their_ends_and_keep_their_tabs():
    assert parse_amendments("\t\t\n\t# c\n Inferno\tI\t2\tselva\tselva \n") == [
        Amendment("Inferno", 1, 2, "selva", "selva")]
    # a TAB at the end is an empty replacement, which deletes the original
    (delete,) = parse_amendments("Inferno\tI\t1\tselva \t")
    assert delete == Amendment("Inferno", 1, 1, "selva ", "")
    doc = parse_corpus("Inferno: Canto I\n\nuna selva oscura\n")
    assert apply_amendments(doc, [delete])[0].text == "una oscura"
    # a sixth field is the note
    assert parse_amendments("Inferno\tI\t2\tselva\tselva\tnota")[0].note == "nota"
    # an original that occurs twice in its verse changes once, the first
    (twice,) = parse_amendments("Inferno\tI\t1\tselva\tsilva")
    doc = parse_corpus("Inferno: Canto I\n\nselva selva oscura\n")
    assert apply_amendments(doc, [twice])[0].text == "silva selva oscura"


def test_bundled_amendments_skip_what_they_cannot_apply(capsys):
    doc = parse_corpus(SAMPLE)
    elsewhere = [Amendment("Inferno", 20, 2, "suol", "x"),
                 Amendment("Paradiso", 1, 1, "suol", "x")]
    assert apply_amendments(doc, elsewhere, strict=False) == doc
    assert capsys.readouterr().err == ""
    drifted = Amendment("Inferno", 20, 1, "non presente", "x")
    amended = apply_amendments(doc, [drifted] + shipped_amendments(), strict=False)
    assert amended[0].text == "e suol di state talor esser grama."
    err = capsys.readouterr().err.splitlines()
    assert err == ["endecascan: skipped amendment at Inferno 20,1: expected "
                   "'non presente' in 'e suol di state talor essere grama.'"]
    with pytest.raises(AmendmentMismatch):
        apply_amendments(doc, [drifted])


def test_scan_document_canto(seed_lexicon, canto_document):
    report = scan_document(canto_document, seed_lexicon, ScanConfig())
    assert len(report.records) == 136
    assert all(r.scansion.status is ScanStatus.OK for r in report)
    assert report.anomalies == []
    assert report.failures == []
    locations = [r.location for r in report.records]
    assert locations[0] == ("Inferno", 1, 1)
    assert locations[-1] == ("Inferno", 1, 136)


def test_scan_document_collects_unknown_words(seed_lexicon):
    doc = parse_corpus("Inferno: Canto I\n\nNel mezzo del xyzzy di nostra vita\n"
                       "mi ritrovai per una selva oscura,\n")
    report = scan_document(doc, seed_lexicon, ScanConfig())
    assert [r.scansion.unknown_key for r in report] == ["xyzzy", None]
    assert report.failures == [("Inferno", 1, 1)]
    assert report.records[1].scansion.status is ScanStatus.OK


def test_report_partitions_every_verse(seed_lexicon):
    doc = parse_corpus((DATA / "anomalies_fixture.txt").read_text("utf-8"))
    report = scan_document(doc, seed_lexicon, ScanConfig())
    ok = [r for r in report if r.scansion.status is ScanStatus.OK]
    total = len(ok) + len(report.anomalies) + len(report.failures)
    assert total == len(report.records)
    assert ("Inferno", 10, 1) in report.anomalies  # mi pinser tra le sepulture


def test_anomaly_file_lists_unrepaired_verses(tmp_path, seed_lexicon):
    doc = parse_corpus((DATA / "anomalies_fixture.txt").read_text("utf-8"))
    report = scan_document(doc, seed_lexicon, ScanConfig())
    paths = write_outputs(report, tmp_path, "anomalies")
    lines = paths["anomalies"].read_text("utf-8").splitlines()
    assert len(lines) == 7
    assert any("sepulture" in line for line in lines)


def render(text, lex):
    tokens = tokenize(normalize_line(text))
    return render_scansion(scan_verse(tokens, lex, ScanConfig()), tokens)


def test_render_examples(seed_lexicon):
    assert render("mi ritrovai per una selva oscura,", seed_lexicon) == \
        "|mi |ri|tro|vai |per |u|na |sel|va o|scu|ra,"
    assert render("Tant’ è amara che poco è più morte;", seed_lexicon) == \
        "|Tan|t’ è a|ma|ra |che |po|co |è |più |mor|te;"


def test_render_failure_marker(seed_lexicon):
    out = render("nel mezzo del xyzzy", seed_lexicon)
    assert out.startswith("?? ")
    assert "xyzzy" in out


def test_render_single_word_verse(seed_lexicon):
    # too short for the metric constraints, so relax them: this checks
    # the render path alone (leading bars, no melds)
    tokens = tokenize(normalize_line("Amore"))
    scansion = scan_verse(tokens, seed_lexicon, ScanConfig(require_a10=False))
    assert render_scansion(scansion, tokens) == "|A|mo|re"


def test_write_outputs(tmp_path, seed_lexicon, canto_document):
    report = scan_document(canto_document, seed_lexicon, ScanConfig())
    paths = write_outputs(report, tmp_path, "inferno_i")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "inferno_i.anomalies.txt", "inferno_i.report.tsv", "inferno_i.syl.txt"]
    tsv = paths["report"].read_text("utf-8").splitlines()
    assert len(tsv) == 137  # header + one row per verse
    assert tsv[0].startswith("cantica\tcanto\tline")
    assert tsv[1].split("\t")[3] == "11"
    assert paths["anomalies"].read_text("utf-8") == ""
    syl = [l for l in paths["syllabified"].read_text("utf-8").splitlines()
           if l.startswith(("|", "«", "??"))]
    assert len(syl) == 136


@pytest.mark.parametrize("name", ["inferno_i", "anomalies_fixture"])
def test_streamed_records_give_the_outputs_of_a_kept_report(
        tmp_path, monkeypatch, seed_lexicon, canto_golden, name):
    doc = parse_corpus((DATA / f"{name}.txt").read_text("utf-8"))
    report = scan_document(doc, seed_lexicon, ScanConfig())
    kept = write_outputs(report, tmp_path / "kept", name)
    streamed = write_outputs(scan_records(doc, seed_lexicon, ScanConfig()),
                             tmp_path / "streamed", name)
    for kind in ("syllabified", "report", "anomalies"):
        assert kept[kind].read_bytes() == streamed[kind].read_bytes()
    # a verse without the word holds no occurrence of it, so the stream
    # filtered by key gives what the whole report gives, for every key
    keys = {t.key for r in report for t in word_tokens(r.tokens)}
    for key in sorted(keys):
        assert classify_word(key, report) == classify_word(
            key, scan_records(doc, seed_lexicon, ScanConfig(), key))
    scanned = []
    monkeypatch.setattr(corpus, "scan_verse", lambda tokens, *rest: (
        scanned.append(tokens) or scan_verse(tokens, *rest)))
    selva = list(scan_records(doc, seed_lexicon, ScanConfig(), "selva"))
    holding = [r for r in report
               if "selva" in {t.key for t in word_tokens(r.tokens)}]
    assert [r.tokens for r in selva] == scanned == [r.tokens for r in holding]
    assert [r.location for r in selva] == [r.location for r in holding]
    assert len(holding) == (2 if name == "inferno_i" else 0)
    for secondary in (False, True):
        assert pattern_histogram(report, secondary) == \
            pattern_histogram(scan_records(doc, seed_lexicon, ScanConfig()),
                              secondary)
    if name == "inferno_i":
        syl = streamed["syllabified"].read_text("utf-8").splitlines()
        assert [line for line in syl[2:] if line] == canto_golden


# verses over the characters that keying and normalizing treat apart:
# `İ` keys as `i`; capital sigma keys as `σ` or, at the end of a word, as
# `ς`; the apostrophe look-alikes and `‘` are rewritten; `¹` is neither a
# letter nor a decimal digit
filter_verse_st = st.text(st.sampled_from("aeiolrsAESİΣσςΑΒ'ʼ′`’‘ ,.;!?«»“”()-¹"),
                          min_size=1, max_size=24)


@settings(max_examples=500, deadline=None)
@given(text=filter_verse_st)
def test_a_key_keeps_every_verse_that_holds_its_word(text):
    doc = (Verse("Inferno", 1, 1, text),)
    tokens = tuple(tokenize(normalize_line(text)))
    for key in {t.key for t in word_tokens(tokens)}:
        (record,) = scan_records(doc, build_lexicon({}), ScanConfig(), key)
        assert record.tokens == tokens


def test_a_key_drops_the_verses_without_its_letters_before_normalizing(
        monkeypatch, capsys, seed_lexicon, canto_document):
    records = list(scan_records(canto_document, seed_lexicon, ScanConfig()))

    def holding(key):
        return [r for r in records if key in {t.key for t in word_tokens(r.tokens)}]

    for key in sorted({t.key for r in records for t in word_tokens(r.tokens)}):
        assert list(scan_records(canto_document, seed_lexicon, ScanConfig(),
                                 key)) == holding(key), key
    normalized, scanned = [], []
    monkeypatch.setattr(corpus, "normalize_line", lambda line: (
        normalized.append(line) or normalize_line(line)))
    monkeypatch.setattr(corpus, "scan_verse", lambda tokens, *rest: (
        scanned.append(tokens) or scan_verse(tokens, *rest)))
    assert main(["query", "--word", "Selva", "--in",
                 str(DATA / "inferno_i.txt")]) == 0
    capsys.readouterr()
    # "selvaggio" holds the letters but not the word: normalized, not scanned
    assert normalized == [v.text for v in canto_document if "selva" in v.text]
    assert len(normalized) == 3
    assert scanned == [r.tokens for r in holding("selva")]


def test_batch_memory_does_not_grow_with_the_corpus(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delenv("ENDECASCAN_LEXICON", raising=False)
    body = (DATA / "inferno_i.txt").read_text("utf-8").split("\n", 1)[1]

    def peaks(copies):
        src = tmp_path / f"copies{copies}.txt"
        src.write_text("\n".join(f"Inferno: Canto {int_to_roman(n)}\n{body}"
                                 for n in range(1, copies + 1)), "utf-8")
        out = []
        for argv in (["corpus", "--in", src, "--out", tmp_path / str(copies)],
                     ["query", "--word", "selva", "--in", src],
                     ["stats", "--in", src]):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assert main([str(arg) for arg in argv]) == 0
            out.append(tracemalloc.get_traced_memory()[1] - start)
            capsys.readouterr()
        return out

    tracemalloc.start()
    try:
        one, ten = peaks(1), peaks(10)
    finally:
        tracemalloc.stop()
    added = 9 * 136
    for command, small, large in zip(("corpus", "query", "stats"), one, ten):
        assert (large - small) / added < 1024, (command, small, large)


def test_scan_records_builds_the_records_the_constructor_builds(
        monkeypatch, seed_lexicon, canto_verses):
    # scan_records builds each record without __init__; it must hold what
    # the constructor gives.  A state's repr reads its whole chain, so a
    # state stands in its repr by its identity
    monkeypatch.setattr(ScanState, "__repr__", lambda s: f"<state {id(s)}>")
    lines = fixed_lines(canto_verses)
    doc = tuple(Verse("Inferno", 1, n, line) for n, line in enumerate(lines, 1))
    records = list(scan_records(doc, seed_lexicon))
    assert len(records) == len(doc)
    for record, verse in zip(records, doc):
        text = normalize_line(verse.text)
        tokens = tuple(tokenize(text))
        built = VerseRecord(verse[:3], text, tokens, record.scansion)
        assert record == built and repr(record) == repr(built), verse
        # the scansion is the verse's: its status and its chosen reading
        fresh = scan_verse(tokens, seed_lexicon)
        assert record.scansion.status is fresh.status, verse
        assert record.scansion.chosen == fresh.chosen, verse


def test_write_outputs_empty_report(tmp_path, seed_lexicon):
    doc = parse_corpus("Inferno: Canto I\n")
    report = scan_document(doc, seed_lexicon, ScanConfig())
    paths = write_outputs(report, tmp_path, "empty")
    assert paths["report"].read_text("utf-8").splitlines()[0].startswith("cantica")
    assert len(paths["report"].read_text("utf-8").splitlines()) == 1


def test_corpus_round_trip_strips_back_to_source(seed_lexicon, canto_document):
    import re

    def squash(s):
        s = " ".join(s.split())
        return re.sub(r" ?([^\w\s’]) ?", r"\1", s)

    report = scan_document(canto_document, seed_lexicon, ScanConfig())
    for record in report.records:
        rendered = render_scansion(record.scansion, list(record.tokens))
        assert squash(rendered.replace("|", "")) == squash(record.text)
