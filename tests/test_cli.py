import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from endecascan.cli import main
from test_wordrules import fake_nondet_table

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parents[1] / "src"
SEED = str(SRC / "endecascan" / "data" / "seed.lex")
CANTO = str(DATA / "inferno_i.txt")
VERSE = "esta selva selvaggia e aspra e forte"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_prints_rendering_and_likelihood(capsys):
    code, out, err = run(capsys, "scan", "--lexicon", SEED, VERSE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "|e|sta |sel|va |sel|vag|gia e |a|spra e |for|te"
    assert lines[1] == "likelihood: 0.648"
    assert "a6" in lines[2] and "a10" in lines[2]


def test_scan_uses_bundled_lexicon_by_default(capsys, monkeypatch):
    monkeypatch.delenv("ENDECASCAN_LEXICON", raising=False)
    code, out, _ = run(capsys, "scan", VERSE)
    assert code == 0
    assert out.splitlines()[1] == "likelihood: 0.648"


def test_scan_lexicon_from_environment(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "tiny.lex"
    bad.write_text("selva\t1\t0\t1\tsel|va\t-1\n", "utf-8")
    monkeypatch.setenv("ENDECASCAN_LEXICON", str(bad))
    code, out, err = run(capsys, "scan", VERSE)
    assert code == 1
    assert "esta" in err


def test_scan_is_deterministic(capsys):
    first = run(capsys, "scan", "--lexicon", SEED, VERSE)
    second = run(capsys, "scan", "--lexicon", SEED, VERSE)
    assert first == second


def test_scan_verbose_dumps_all_final_states(capsys):
    code, out, _ = run(capsys, "scan", "--lexicon", SEED, "--verbose", VERSE)
    assert code == 0
    states = [l for l in out.splitlines() if l.startswith("  (")]
    assert len(states) == 8
    assert any("0.648" in s for s in states)
    assert any(", 13, " in s for s in states)


def test_scan_unknown_word_exit_code(capsys):
    code, _, err = run(capsys, "scan", "--lexicon", SEED, "selva xyzzy oscura")
    assert code == 1
    assert "xyzzy" in err


def test_missing_file_is_fatal(capsys):
    code, _, err = run(capsys, "scan", "--lexicon", "/no/such/file.lex", VERSE)
    assert code == 2
    assert err


def test_unknown_flag_is_fatal(capsys):
    assert main(["scan", "--frobnicate", VERSE]) == 2


def test_corpus_subcommand(capsys, tmp_path):
    code, out, err = run(capsys, "corpus", "--lexicon", SEED,
                         "--in", str(DATA / "inferno_i.txt"),
                         "--out", str(tmp_path))
    assert code == 0
    assert "scanned 136 verses: 136 ok, 0 anomalies, 0 failures" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "inferno_i.anomalies.txt", "inferno_i.report.tsv", "inferno_i.syl.txt"]


def test_corpus_tallies_each_status(capsys, tmp_path):
    # an ok verse, Inferno X,1 of the anomalies fixture, a verse with no
    # stress on the tenth syllable and two with unknown words, the later
    # one first in the alphabet
    src = tmp_path / "tally.txt"
    src.write_text("Inferno: Canto I\n\n"
                   "Nel mezzo del cammin di nostra vita\n"
                   "mi pinser tra le sepulture a lui,\n"
                   "selva oscura\n\n"
                   "la zebra e la selva\n"
                   "e asino,\n", "utf-8")
    code, out, err = run(capsys, "corpus", "--lexicon", SEED, "--in", str(src),
                         "--out", str(tmp_path / "out"))
    assert code == 1
    assert out.splitlines()[0] == \
        "scanned 5 verses: 1 ok, 1 anomalies, 3 failures"
    assert err == "unknown words: asino, zebra\n"
    rows = (tmp_path / "out" / "tally.report.tsv").read_text("utf-8")
    assert [row.split("\t")[8] for row in rows.splitlines()[1:]] == [
        "ok", "warn-no-caesura", "fail-no-accent10", "fail-unknown-word",
        "fail-unknown-word"]


def test_lex_check(capsys, tmp_path):
    code, out, _ = run(capsys, "lex", "check", SEED)
    assert code == 0
    assert out.startswith("ok:")
    bad = tmp_path / "bad.lex"
    bad.write_text("x\t0.5\t0\t1\tx\t0\n", "utf-8")
    code, _, err = run(capsys, "lex", "check", str(bad))
    assert code == 1


def test_analysis_that_does_not_spell_its_key(capsys, tmp_path):
    bad = tmp_path / "bad.lex"
    bad.write_text("selva\t1\t0.5\t0.5\tsel|v\t-1\n", "utf-8")
    code, _, err = run(capsys, "lex", "check", str(bad))
    assert code == 1
    assert err.startswith("invalid: line 1: ")
    code, out, err = run(capsys, "scan", "--lexicon", str(bad), "selva")
    assert code == 2
    assert "line 1" in err and not out


def test_lex_build_drafts_entries(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("selva\noscura\navea\n", "utf-8")
    code, out, _ = run(capsys, "lex", "build", "--words", str(words))
    assert code == 0
    assert "selva\t1.0\t0.0\t1.0\tsel|va\t-1" in out
    assert out.count("avea") == 1
    code, out, _ = run(capsys, "lex", "build", "--words", str(words),
                       "--all-variants")
    assert out.count("avea") == 2


def test_lex_build_keys_words_as_the_tokenizer_does(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("oscura, Inferno:\n#oscura,\n", "utf-8")
    code, out, _ = run(capsys, "lex", "build", "--words", str(words))
    assert code == 0
    entries = {line.split("\t")[0]: line.split("\t")[1:]
               for line in out.splitlines()
               if "\t" in line and not line.startswith("#")}
    assert sorted(entries) == ["inferno", "oscura"]
    weight, p_l, p_r, syllables, accents = entries["oscura"]
    assert (p_r, syllables, accents) == ("1.0", "o|scu|ra", "-1")


def test_lex_build_skips_canto_header_lines(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("Inferno: Canto XV\nNel mezzo del cammin\n", "utf-8")
    code, out, err = run(capsys, "lex", "build", "--words", str(words))
    assert code == 0 and err == ""
    keys = [line.split("\t")[0] for line in out.splitlines()
            if not line.startswith(("#", "@"))]
    assert sorted(keys) == ["cammin", "del", "mezzo", "nel"]


def test_lex_build_drafts_a_word_that_starts_with_a_hash(capsys, tmp_path):
    # only a whole `#` line is a comment; `#mezzo` is keyed as scan keys it
    words = tmp_path / "words.txt"
    words.write_text("# a comment\n\n  nel #mezzo del  \n", "utf-8")
    code, out, err = run(capsys, "lex", "build", "--words", str(words))
    assert code == 0 and err == ""
    keys = [line.split("\t")[0] for line in out.splitlines()
            if not line.startswith(("#", "@"))]
    assert keys == ["nel", "mezzo", "del"]


def test_lex_build_normalizes_each_line_whole(capsys, tmp_path):
    # a quote pair spans words: the line is normalized as scan does it
    words = tmp_path / "words.txt"
    words.write_text("e ‘Beati misericordes!’ fue\n", "utf-8")
    code, out, _ = run(capsys, "lex", "build", "--words", str(words))
    assert code == 0
    keys = [line.split("\t")[0] for line in out.splitlines()
            if not line.startswith(("#", "@"))]
    assert sorted(keys) == ["beati", "e", "fue", "misericordes"]


def test_lex_build_rejects_out_of_range_propensity(capsys, monkeypatch,
                                                   tmp_path):
    fake_nondet_table(monkeypatch, "avea\t1\t1\t1.5\ta|vea\t0\n")
    words = tmp_path / "words.txt"
    words.write_text("avea\n", "utf-8")
    code, out, err = run(capsys, "lex", "build", "--words", str(words))
    assert code == 2 and not out
    assert err == "endecascan: line 1: propensity '1.5' outside [0, 1]\n"


# sha256 of `lex build --words inferno_i.txt` stdout; only a deliberate
# change to the drafting rules or their bundled data may update these
LEX_BUILD_SHA256 = {
    (): "fb475a6b38345ba32ad4f9d388f42d7f75ec48f0d9dc3542f4f7dffefe646528",
    ("--all-variants",):
        "f463e087a39c628bccd1625c61b10cb7c0eee6474ec79c66e87d2114b1e08dc6",
}


@pytest.mark.parametrize("flags", LEX_BUILD_SHA256, ids=["default", "all-variants"])
def test_lex_build_output_of_the_canto_is_pinned(capsys, flags):
    code, out, err = run(capsys, "lex", "build", "--words", CANTO, *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LEX_BUILD_SHA256[flags]


# sha256 of `lex build` stdout on inputs that reach the hiatus, glide and
# monosyllable rules more often than the canto does, and the stderr of
# each; the hiatus list's `#` comment lines draft nothing
LEX_BUILD_RULES = ("hiatus\tlascia\tmalvagia\tciascun\tguida\tpaura\tfigliuol"
                   "\tbestia\tmiei\ndiphthong-p\t0.1\n"
                   "probabilistic\tqua\t0.5\t0.25\nnever-synalephe\tbe\tme\ttra\n")
LEX_BUILD_RULE_CASES = {
    "hiatus list": (
        "17a39eb28b1e5352e36a4e472b722ee6cae0bd3a709e15cdae64d4f8abe51e11", ""),
    "seed keys": (
        "5ddc07490954e71c18e5b1e2fc3ac533afb75c6ad9d081394154355e75b18699", ""),
    "canto with rules": (
        "3cdaa667040e7e8923274a328313458933cb0dcf3647ac1c1382d340dafa2675", ""),
}


@pytest.mark.parametrize("case", LEX_BUILD_RULE_CASES)
def test_lex_build_output_of_the_rule_inputs_is_pinned(capsys, tmp_path,
                                                       seed_lexicon, case):
    seed_keys = tmp_path / "seed_keys.txt"
    seed_keys.write_text("\n".join(seed_lexicon.entries) + "\n", "utf-8")
    rules = tmp_path / "rules.cfg"
    rules.write_text(LEX_BUILD_RULES, "utf-8")
    argv = {"hiatus list": [str(SRC / "endecascan" / "data" / "hiatus_words.txt")],
            "seed keys": [str(seed_keys)],
            "canto with rules": [CANTO, "--rules", str(rules)]}[case]
    code, out, err = run(capsys, "lex", "build", "--words", *argv)
    digest, note = LEX_BUILD_RULE_CASES[case]
    assert (code, err) == (0, note)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of the batch commands' outputs on inferno_i.txt with the bundled
# dictionary; only a deliberate change to scanning or to an output
# format may update these
BATCH_SHA256 = {
    "corpus report.tsv":
        "7c10f9ce6df30e459c3062de8beef9c48c39d4eef262fdaf3a1050088b9bc723",
    # the canto has no anomaly: the file is empty
    "corpus anomalies.txt":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "stats": "f3a3e28dda769d8e18b9e737e7d0c9d66ed9d6e4f77e55066a4bc4a459ac54cd",
    "stats --secondary":
        "f3a3e28dda769d8e18b9e737e7d0c9d66ed9d6e4f77e55066a4bc4a459ac54cd",
    "query selva": "665141090e6b542d0178e8980b14dae30320c32ea076c8f3ff4ce3bfe6e11095",
    "query tra": "123943e6592aac9f05980b17ed15d7034ccb6557504c2c3cd1bfcce3f26f995f",
    "query e": "560aedaadf4bbf6bf154b3f22a794963f5e873892ca847234d130bf42d1b45cb",
}


def test_batch_outputs_of_the_canto_are_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("ENDECASCAN_LEXICON", raising=False)
    outputs = {}
    code, _, err = run(capsys, "corpus", "--in", CANTO, "--out", str(tmp_path))
    assert (code, err) == (0, "")
    for name in ("report.tsv", "anomalies.txt"):
        outputs[f"corpus {name}"] = (tmp_path / f"inferno_i.{name}").read_text("utf-8")
    for label, argv in [("stats", ["stats"]),
                        ("stats --secondary", ["stats", "--secondary"]),
                        *((f"query {w}", ["query", "--word", w])
                          for w in ("selva", "tra", "e"))]:
        code, out, err = run(capsys, *argv, "--in", CANTO)
        assert (code, err) == (0, "")
        outputs[label] = out
    assert {label: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for label, text in outputs.items()} == BATCH_SHA256


def test_lex_build_with_custom_rules(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("qua\n", "utf-8")
    rules = tmp_path / "rules.cfg"
    rules.write_text("never-synalephe\tbe\nprobabilistic\tqua\t0.5\t0.25\n", "utf-8")
    code, out, _ = run(capsys, "lex", "build", "--words", str(words),
                       "--rules", str(rules))
    assert code == 0
    assert "qua\t1.0\t0.5\t0.25\tqua\t0" in out


def test_corpus_notes_a_repeated_canto_header(capsys, tmp_path):
    body = (DATA / "inferno_i.txt").read_text("utf-8").split("\n", 1)[1]
    src = tmp_path / "twice.txt"
    src.write_text(f"Inferno: Canto II\n{body}\nInferno: Canto II\n{body}", "utf-8")
    line_no = src.read_text("utf-8").splitlines().index("Inferno: Canto II", 1) + 1
    code, out, err = run(capsys, "corpus", "--lexicon", SEED, "--in", str(src),
                         "--out", str(tmp_path / "out"))
    assert code == 0
    assert "scanned 272 verses: 272 ok, 0 anomalies, 0 failures" in out
    assert err.splitlines() == [
        f"endecascan: repeated header 'Inferno: Canto II' at line {line_no}; "
        "its verses repeat locations"]
    report = (tmp_path / "out" / "twice.report.tsv").read_text("utf-8")
    assert report.count("Inferno\t2\t1\t") == 2


def test_corpus_with_explicit_amendments(capsys, tmp_path):
    src = tmp_path / "canto.txt"
    src.write_text("Inferno: Canto XX\n\nNel mezzo del cammin di nostra vita\n",
                   "utf-8")
    amendments = tmp_path / "fix.tsv"
    amendments.write_text("Inferno\tXX\t1\tcammin\tcammino\t\n", "utf-8")
    code, out, _ = run(capsys, "corpus", "--lexicon", SEED, "--in", str(src),
                       "--out", str(tmp_path / "out"),
                       "--amendments", str(amendments))
    assert code == 1  # the amended "cammino" breaks the metre: verse fails
    assert "1 failures" in out
    # a mismatching explicit amendment is fatal
    amendments.write_text("Inferno\tXX\t1\tnon presente\tx\t\n", "utf-8")
    code, _, err = run(capsys, "corpus", "--lexicon", SEED, "--in", str(src),
                       "--out", str(tmp_path / "out2"),
                       "--amendments", str(amendments))
    assert code == 2
    assert "amendment" in err


def test_an_amendment_row_with_spaces_at_its_ends_matches(capsys, tmp_path):
    amendments = tmp_path / "fix.tsv"
    amendments.write_text("# fixes\n\n Inferno\tI\t2\tselva\tselva \n", "utf-8")
    code, out, err = run(capsys, "corpus", "--lexicon", SEED, "--in", CANTO,
                         "--out", str(tmp_path / "out"),
                         "--amendments", str(amendments))
    assert (code, err) == (0, "")
    assert "scanned 136 verses" in out


NOT_UTF8 = "Inferno: Canto I\n\nperché\n".encode("latin-1")


@pytest.mark.parametrize("env,argv", [
    (False, ["scan", "--lexicon", "{bad}", VERSE]),
    (True, ["scan", VERSE]),
    (False, ["corpus", "--in", "{bad}", "--out", "{out}"]),
    (False, ["corpus", "--lexicon", "{bad}", "--in", CANTO, "--out", "{out}"]),
    (False, ["corpus", "--in", CANTO, "--out", "{out}", "--amendments", "{bad}"]),
    (False, ["query", "--word", "tra", "--in", "{bad}"]),
    (False, ["stats", "--in", "{bad}"]),
    (False, ["lex", "check", "{bad}"]),
    (False, ["lex", "build", "--words", "{bad}"]),
    (False, ["lex", "build", "--words", CANTO, "--rules", "{bad}"]),
], ids=["scan --lexicon", "ENDECASCAN_LEXICON", "corpus --in",
        "corpus --lexicon", "corpus --amendments", "query --in", "stats --in",
        "lex check", "lex build --words", "lex build --rules"])
def test_a_file_that_is_not_utf8_is_named_and_fatal(capsys, monkeypatch,
                                                    tmp_path, env, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(NOT_UTF8)
    monkeypatch.setenv("ENDECASCAN_LEXICON", str(bad) if env else SEED)
    argv = [a.format(bad=bad, out=tmp_path / "out") for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"endecascan: {bad}: not UTF-8 text ")


def test_an_amendment_verse_number_that_is_not_an_integer_is_fatal(capsys,
                                                                   tmp_path):
    amendments = tmp_path / "fix.tsv"
    amendments.write_text("# cantica\tcanto\tline\nInferno\tI\tx\tselva\tselva\n",
                          "utf-8")
    code, out, err = run(capsys, "corpus", "--lexicon", SEED, "--in", CANTO,
                         "--out", str(tmp_path / "out"),
                         "--amendments", str(amendments))
    assert (code, out) == (2, "")
    assert err == "endecascan: amendment line 2: bad verse number 'x'\n"


@pytest.mark.parametrize("row,message", [
    ("probabilistic\tx\tabc\t0.1",
     "line 2: probabilistic needs a number, got ['x', 'abc', '0.1']"),
    ("diphthong-p\tabc", "line 2: diphthong-p needs a number, got ['abc']"),
    ("accented-final-p-r", "line 2: accented-final-p-r needs a number, got []"),
    # a number outside [0, 1] names its line too
    ("diphthong-p\tnan", "line 2: diphthong-p value 'nan' outside [0, 1]"),
    ("accented-final-p-r\t5",
     "line 2: accented-final-p-r value '5' outside [0, 1]"),
    ("diphthong-p\t-1", "line 2: diphthong-p value '-1' outside [0, 1]"),
    # qua is also never-synalephe: the value is checked first
    ("probabilistic\tqua\t1.5\t0.1",
     "line 2: probabilistic value '1.5' outside [0, 1]"),
    # a word and one number, with no p_r
    ("probabilistic\tqua\t0.5", "line 2: expected word, p_l, p_r"),
], ids=["probabilistic", "diphthong-p", "accented-final-p-r", "nan", "above",
        "below", "probabilistic out of range", "probabilistic without p_r"])
def test_a_rule_setting_that_is_not_a_number_is_fatal(capsys, tmp_path, row,
                                                      message):
    rules = tmp_path / "rules.cfg"
    rules.write_text(f"hiatus\tqua\n{row}\n", "utf-8")
    code, out, err = run(capsys, "lex", "build", "--words", CANTO,
                         "--rules", str(rules))
    assert (code, out) == (2, "")
    assert err == f"endecascan: {message}\n"


def test_lex_build_notes_a_word_with_no_vowel_in_one_line(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("pss selva pss\n", "utf-8")
    code, out, err = run(capsys, "lex", "build", "--words", str(words))
    assert code == 0
    assert "pss\t1.0\t0.0\t0.0\tpss\t0" in out
    assert err == "endecascan: no vowel in 'pss', treating as one syllable\n"


@pytest.mark.parametrize("numeral,message", [
    ("Q", "bad roman numeral 'Q'"),
    ("IIII", "non-canonical roman numeral 'IIII'"),
], ids=["bad", "non-canonical"])
def test_an_amendment_canto_numeral_error_names_its_line(capsys, tmp_path,
                                                         numeral, message):
    amendments = tmp_path / "fix.tsv"
    amendments.write_text(f"Inferno\tI\t1\tselva\tselva\n"
                          f"Inferno\t{numeral}\t1\tselva\tselva\n", "utf-8")
    code, out, err = run(capsys, "corpus", "--lexicon", SEED, "--in", CANTO,
                         "--out", str(tmp_path / "out"),
                         "--amendments", str(amendments))
    assert (code, out) == (2, "")
    assert err == f"endecascan: amendment line 2: {message}\n"


@pytest.mark.parametrize("numeral", ["IIII", "MMMM"])
def test_a_corpus_canto_numeral_error_names_its_line(capsys, tmp_path, numeral):
    src = tmp_path / "bad.txt"
    src.write_text(f"preamble\n\nInferno: Canto {numeral}\n\n{VERSE}\n", "utf-8")
    code, out, err = run(capsys, "corpus", "--lexicon", SEED, "--in", str(src),
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == (f"endecascan: line 3: non-canonical roman numeral "
                   f"{numeral!r}\n")


def test_query_subcommand(capsys):
    code, out, _ = run(capsys, "query", "--lexicon", SEED, "--word", "tra",
                       "--in", str(DATA / "inferno_i.txt"))
    assert code == 0
    assert "dialephe" in out
    # the word is keyed as the verses' words are, so case does not matter
    assert run(capsys, "query", "--lexicon", SEED, "--word", "TRA",
               "--in", str(DATA / "inferno_i.txt")) == (code, out, "")
    # and it is normalized and tokenized first: an ASCII apostrophe is the
    # typographic one, and the spaces and marks around the word go
    for given, word in (("ch'", "ch’"), ("l'", "l’"), (" selva ", "selva"),
                        ("Selva,", "selva"), ("«Selva»", "selva")):
        want = run(capsys, "query", "--lexicon", SEED, "--word", word,
                   "--in", str(DATA / "inferno_i.txt"))
        assert want[1].count("\n") > 1
        assert run(capsys, "query", "--lexicon", SEED, "--word", given,
                   "--in", str(DATA / "inferno_i.txt")) == want
    # what does not make exactly one word token is a fatal input error
    for given in ("ch'io", "selva oscura", ",", "", "123"):
        code, out, err = run(capsys, "query", "--lexicon", SEED, "--word",
                             given, "--in", str(DATA / "inferno_i.txt"))
        assert (code, out) == (2, "")
        assert err == f"endecascan: --word {given!r} is not one word\n"


def test_stats_subcommand(capsys):
    code, out, _ = run(capsys, "stats", "--lexicon", SEED,
                       "--in", str(DATA / "inferno_i.txt"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pattern\tcount"
    assert sum(int(l.split("\t")[1]) for l in lines[1:]) == 136


def test_bundled_amendments_match_cantica_in_any_case(capsys, tmp_path):
    # only Inferno XX,81 of the bundled amendments is in this corpus, and
    # it applies although the header spells the cantica in capitals
    verses = ["Nel mezzo del cammin di nostra vita"] * 80
    verses.append("ché bella son tutte essere grama")
    src = tmp_path / "partial.txt"
    src.write_text("INFERNO: Canto XX\n\n" + "\n".join(verses) + "\n", "utf-8")
    code, _, _ = run(capsys, "corpus", "--lexicon", SEED, "--in", str(src),
                     "--out", str(tmp_path / "out"))
    syl = (tmp_path / "out" / "partial.syl.txt").read_text("utf-8")
    assert "esser grama" in syl and "essere" not in syl
    assert code == 1  # the amended verse has words the seed lexicon lacks


def test_bundled_amendments_skip_drifted_verses(capsys, tmp_path):
    # Inferno XX,81 exists here but does not hold the bundled original:
    # every command notes the skip and scans the verse as it is
    verses = ["Nel mezzo del cammin di nostra vita"] * 81
    src = tmp_path / "drifted.txt"
    src.write_text("Inferno: Canto XX\n\n" + "\n".join(verses) + "\n", "utf-8")
    note = ("endecascan: skipped amendment at Inferno 20,81: expected "
            "'essere grama' in 'Nel mezzo del cammin di nostra vita'\n")
    for argv in (["corpus", "--out", str(tmp_path / "out")],
                 ["query", "--word", "vita"], ["stats"]):
        code, out, err = run(capsys, *argv, "--lexicon", SEED, "--in", str(src))
        assert (code, err) == (0, note), argv
        assert out


def test_commands_agree_on_an_amended_verse(capsys, tmp_path):
    verses = ["Nel mezzo del cammin di nostra vita"] * 80
    verses.append("e suol di state talor essere grama.")
    src = tmp_path / "canto.txt"
    src.write_text("Inferno: Canto XX\n\n" + "\n".join(verses) + "\n", "utf-8")
    code, out, _ = run(capsys, "corpus", "--lexicon", SEED, "--in", str(src),
                       "--out", str(tmp_path / "out"))
    assert code == 0
    assert "scanned 81 verses: 81 ok" in out
    syl = (tmp_path / "out" / "canto.syl.txt").read_text("utf-8").splitlines()
    chunks = syl[-1].split(" ")
    assert "".join(chunks).replace("|", "") == "esuoldistatetaloressergrama."
    # a word melds with the previous one when its chunk opens without a bar
    melded = [not chunk.startswith("|") for chunk in chunks]
    i = 5  # esser
    want = [f"Inferno\t20\t81\tesser\tleft\t"
            f"{'synalephe' if melded[i] else 'dialephe'}\ttalor",
            f"Inferno\t20\t81\tesser\tright\t"
            f"{'synalephe' if melded[i + 1] else 'dialephe'}\tgrama"]
    code, out, _ = run(capsys, "query", "--lexicon", SEED, "--word", "esser",
                       "--in", str(src))
    assert (code, out.splitlines()[1:]) == (0, want)
    code, out, _ = run(capsys, "stats", "--lexicon", SEED, "--in", str(src))
    assert code == 0
    assert sum(int(line.split("\t")[1]) for line in out.splitlines()[1:]) == 81


@pytest.fixture
def bad_selva(monkeypatch):
    """The seed lexicon as the default, with "selva" cut as "sel|v"."""
    from endecascan import cli
    from endecascan.lexicon import Propensity, WordAnalysis
    lex = cli.parse_lexicon(pathlib.Path(SEED).read_text("utf-8"))
    bad = lex.with_override("selva", [WordAnalysis(
        ("sel", "v"), (-1,), Propensity.prob(0), Propensity.prob(1))])
    monkeypatch.setattr(cli, "load_default_lexicon", lambda: bad)


def test_corpus_contains_a_bad_analysis_to_its_verse(capsys, bad_selva,
                                                     tmp_path):
    code, out, _ = run(capsys, "corpus", "--in", CANTO, "--out", str(tmp_path))
    assert code == 1
    # verses 2 and 5 hold "selva"
    assert "scanned 136 verses: 134 ok, 0 anomalies, 2 failures" in out
    rows = (tmp_path / "inferno_i.report.tsv").read_text("utf-8").splitlines()
    assert [row.split("\t")[8] for row in rows[1:6]] == [
        "ok", "fail-bad-analysis", "ok", "ok", "fail-bad-analysis"]
    syl = (tmp_path / "inferno_i.syl.txt").read_text("utf-8")
    assert "\n?? mi ritrovai per una selva oscura,\n" in syl


def scan_and_corpus_status(capsys, tmp_path, verse):
    """`scan`'s outcome on a verse, and its status in a `corpus` report."""
    scanned = run(capsys, "scan", verse)
    src = tmp_path / "verse.txt"
    src.write_text(f"Inferno: Canto I\n\n{verse}\n", "utf-8")
    code, _, _ = run(capsys, "corpus", "--in", str(src),
                     "--out", str(tmp_path / "out"))
    assert code == 1
    rows = (tmp_path / "out" / "verse.report.tsv").read_text("utf-8")
    return scanned, rows.splitlines()[1].split("\t")[8]


def test_scan_fails_a_bad_analysis_as_corpus_does(capsys, bad_selva, tmp_path):
    assert scan_and_corpus_status(
        capsys, tmp_path, "mi ritrovai per una selva oscura,") == (
        (1, "", "endecascan: no admissible scansion\n"), "fail-bad-analysis")


def test_a_dotted_capital_i_reaches_the_scanner(capsys, monkeypatch, tmp_path):
    # "İ" keys as the seed's "i", one character for one: the verse is
    # scanned, and fails as a lone "i" does, for want of a tenth stress
    monkeypatch.delenv("ENDECASCAN_LEXICON", raising=False)
    assert scan_and_corpus_status(capsys, tmp_path, "İ") == (
        (1, "", "endecascan: no admissible scansion\n  best rejected: |İ\n"),
        "fail-no-accent10")


def run_fresh(cwd, script):
    """Run the command line in a new interpreter, so no module is loaded yet."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ENDECASCAN_LEXICON", None)
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_scan_and_lex_check_do_not_load_the_batch_modules(tmp_path):
    script = f"""if True:
        import json, sys
        from endecascan import cli
        codes = [cli.main(["scan", "Nel mezzo del cammin di nostra vita"]),
                 cli.main(["lex", "check", {SEED!r}])]
        print(json.dumps([codes, sorted(sys.modules)]))
    """
    proc = run_fresh(tmp_path, script)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert "endecascan.scander" in modules
    for name in ("corpus", "analysis", "wordrules"):
        assert f"endecascan.{name}" not in modules
    assert "dataclasses" not in modules and "inspect" not in modules


def test_corpus_does_not_load_analysis_or_wordrules(tmp_path):
    script = f"""if True:
        import json, sys
        from endecascan import cli
        codes = [cli.main(["corpus", "--in", {CANTO!r}, "--out", "out"])]
        print(json.dumps([codes, sorted(sys.modules)]))
    """
    proc = run_fresh(tmp_path, script)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0]
    assert "endecascan.corpus" in modules
    for name in ("analysis", "wordrules"):
        assert f"endecascan.{name}" not in modules


def test_no_command_loads_dataclasses(tmp_path):
    script = f"""if True:
        import json, sys
        from endecascan import cli
        codes = [cli.main(argv) for argv in (
            ["corpus", "--in", {CANTO!r}, "--out", "out"],
            ["stats", "--in", {CANTO!r}],
            ["query", "--word", "tra", "--in", {CANTO!r}],
            ["lex", "build", "--words", {CANTO!r}],
            ["scan", "Nel mezzo del cammin di nostra vita"],
            ["lex", "check", {SEED!r}])]
        print(json.dumps([codes, sorted(sys.modules)]))
    """
    proc = run_fresh(tmp_path, script)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 6
    for name in ("corpus", "analysis", "wordrules"):
        assert f"endecascan.{name}" in modules
    # a documented argv is read without argparse, its gettext or locale
    for name in ("dataclasses", "inspect", "argparse", "gettext", "locale"):
        assert name not in modules


def test_help_from_a_fresh_process_is_argparse_s(tmp_path):
    proc = run_fresh(tmp_path, "import sys\nfrom endecascan.cli import main\n"
                               "sys.exit(main(['scan', '--help']))")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: endecascan scan [-h] [--lexicon LEXICON]")


def test_fatal_errors_of_lazily_loaded_modules_from_a_fresh_process(tmp_path):
    (tmp_path / "fix.tsv").write_text("Inferno\tQ\t1\tselva\tselva\n", "utf-8")
    (tmp_path / "rules.cfg").write_text("diphthong-p\t5\n", "utf-8")
    for argv, message in [
            (["corpus", "--in", CANTO, "--out", "out", "--amendments", "fix.tsv"],
             "amendment line 1: bad roman numeral 'Q'"),
            (["lex", "build", "--words", CANTO, "--rules", "rules.cfg"],
             "line 1: diphthong-p value '5' outside [0, 1]")]:
        proc = run_fresh(tmp_path, "import sys\nfrom endecascan.cli import main\n"
                                   f"sys.exit(main({argv!r}))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"endecascan: {message}\n")


@pytest.mark.parametrize("argv", [
    ["corpus", "--in", CANTO, "--out", "out"],
    ["query", "--word", "tra", "--in", CANTO],
    ["stats", "--in", CANTO],
    ["lex", "build", "--words", CANTO],
], ids=["corpus", "query", "stats", "lex build"])
def test_commands_from_a_fresh_process(capsys, monkeypatch, tmp_path, argv):
    # each command imports the modules it needs itself; in this process
    # they are already loaded, so only a new interpreter can show a
    # missing import
    script = ("import sys\nfrom endecascan.cli import main\n"
              f"sys.exit(main({argv!r}))")
    proc = run_fresh(tmp_path, script)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ENDECASCAN_LEXICON", raising=False)
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == 0 and out


# argparse's help, usage and error texts, at a fixed width; each command's
# help as a sha256 of its stdout (exit 0, nothing on stderr)
HELP_SHA256 = {
    (): "e14ab9204603e4c258a66d7caeb55e992a2d627e8f3fb8ba6fd8d1ee492d5d6e",
    ("scan",): "d00697ef3c4a068f3b6605e0b48b2374314bba386e29ab9a3b85ef92d6b3e1ed",
    ("corpus",): "3416566c436b6032b28cfadb492426154fa1870387e9681cc40448f28679c26c",
    ("lex",): "51cdb92087ca920f3c23d78f2ec279177a291169f2cecbbb10198299f1a40661",
    ("lex", "build"): "c09fbb3169f962c6e7a723799d420f093a71101e9b71201f3922b7c561685627",
    ("lex", "check"): "8580cd48cc95e7efd1c597d9ae63eb24c58917f85416489fff53491e4fb38ef6",
    ("query",): "142a9aa42b5877c434bd0467e2e48cacc32a04e712ea85441e7f36be71d7be44",
    ("stats",): "1d9c255d0d3732a17bc561b9a98adf6c1620952e06a30705fd7bf8452977c5c8",
}


@pytest.mark.parametrize("command", HELP_SHA256,
                         ids=lambda c: " ".join(c) or "endecascan")
def test_help_texts_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *command, "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_SHA256[command]


TOP_USAGE = "usage: endecascan [-h] {scan,corpus,lex,query,stats} ...\n"
NEL_MEZZO = "Nel mezzo del cammin di nostra vita"
NEL_MEZZO_SCAN = ("|Nel |mez|zo |del |cam|min |di |no|stra |vi|ta\n"
                  "likelihood: {}\n"
                  "syllables: 11  accents: a6 a10  status: ok\n")
MALFORMED = {
    "no command": ([], 2, "", TOP_USAGE + "endecascan: error: the following "
                   "arguments are required: command\n"),
    "unknown command": (["frob"], 2, "", TOP_USAGE + "endecascan: error: "
                        "argument command: invalid choice: 'frob' (choose from "
                        "'scan', 'corpus', 'lex', 'query', 'stats')\n"),
    "missing required option": (
        ["corpus", "--in", "x"], 2, "",
        "usage: endecascan corpus [-h] --in INFILE --out OUT [--lexicon LEXICON]\n"
        "                         [--amendments AMENDMENTS]\n"
        "endecascan corpus: error: the following arguments are required: --out\n"),
    "option with no value": (
        ["scan", "--lexicon"], 2, "",
        "usage: endecascan scan [-h] [--lexicon LEXICON] [--verbose] verse\n"
        "endecascan scan: error: argument --lexicon: expected one argument\n"),
    "unknown option": (["scan", "--frobnicate", NEL_MEZZO], 2, "", TOP_USAGE
                       + "endecascan: error: unrecognized arguments: --frobnicate\n"),
    "extra positional": (["scan", "a", "b"], 2, "", TOP_USAGE
                         + "endecascan: error: unrecognized arguments: b\n"),
    # argparse takes an abbreviation and an attached value: both scan
    "abbreviation": (["scan", "--verb", NEL_MEZZO], 0,
                     NEL_MEZZO_SCAN.format("1.0") + "final states:\n"
                     "  (|Nel |mez|zo |del |cam|min |di |no|stra |vi|ta, "
                     "1.0, 11, 1.0)\n", ""),
    "attached value": (["scan", f"--lexicon={SEED}", NEL_MEZZO], 0,
                       NEL_MEZZO_SCAN.format("1.000"), ""),
}


@pytest.mark.parametrize("argv, code, out, err", MALFORMED.values(),
                         ids=MALFORMED)
def test_argvs_off_the_documented_spelling_are_pinned(capsys, monkeypatch,
                                                      argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ENDECASCAN_LEXICON", raising=False)
    assert run(capsys, *argv) == (code, out, err)
