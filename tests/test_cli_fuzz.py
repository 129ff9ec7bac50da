"""Every command ends every input in a documented outcome.

Exit 0 or 1, or exit 2 with nothing on stdout and an `endecascan:` line
last on stderr; never an exception that escapes `main`.  The files are
generated: corpora with canto headers, tabs, Roman numerals and U+2018,
or a header over a run of the canto's lines, lexicon, amendment and rule
files with bad rows among good ones, and now and then a byte that is not
UTF-8.  A query that succeeds prints the table that the corpus's
unfiltered records give, and most queries print a row of it.
"""

import contextlib
import io
import pathlib
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from endecascan import cli
from endecascan.analysis import classify_word, occurrences_tsv
from endecascan.cli import (FLAG, POSITIONAL, REQUIRED, _read_argv,
                            _scan_records, build_parser, main)
from endecascan.tokenizer import normalize_line, tokenize

SEED = (pathlib.Path(__file__).parents[1] / "src" / "endecascan" / "data"
        / "seed.lex")
SEED_TEXT = SEED.read_text("utf-8")
# the canto's lines after its header, blank lines between tercets included
CANTO_LINES = (pathlib.Path(__file__).parent / "data" / "inferno_i.txt"
               ).read_text("utf-8").splitlines()[2:]
MARKS = ",.;:!?«»“”"
ELISION = re.compile(r"(?<=\w)’")

# what a line is made of: lexicon words, capitals, unknown and vowelless
# words, marks, numerals; "İ" keys as "i", one character as in the word
PIECES = ["İ", "nel", "mezzo", "del", "cammin", "di", "nostra", "vita",
          "selva", "oscura", "e", "a", "o", "che", "la", "tra", "Selva", "E",
          "xyzzy", "pss", "l’", "d’", "ch’", "‘", "’", "'", "«", "»", ",", ".",
          "I", "XX", "IIII", "Canto", ":"]
SEPARATORS = [" ", " ", " ", "", "\t", "  "]

# rows every generated lexicon has, and rows that make a lexicon invalid
GOOD_LEXICON_ROWS = [
    "i\u0307\t1\t1.0\t1.0\ti\u0307\t0",  # valid; no word keys as "i̇"
    "xyzzy\t1\tA\tA\txyz|zy\t-1", "@stress-ineligible\te\ta", "# comment",
]
BAD_LEXICON_ROWS = [
    "selva\t1\t0\t1\tsel|v\t-1",  # does not spell its key
    "x\t0.5\t0\t1\tx\t0", "Selva\t1\t0\t1\tSel|va\t-1", "a\t1\t2\t0\ta\t0",
    "vita\t1\tnan\t1\tvi|ta\t-1", "vita\t1\t0\t1\tvi|ta\t-1,-1",
    "vita\t1\t0\t1\tvi|ta\tx", "bad", "@stress-ineligible\tE",
]

RULE_ROWS = [
    "never-synalephe\tbe\tqua", "probabilistic\tqua\t0.5\t0.25",
    "probabilistic\tx\t1.5\t0.1", "probabilistic\tx", "hiatus\tpaura",
    "accented-final-p-r\t5", "accented-final-p-r\tnan", "diphthong-p\t-1",
    "diphthong-p\t0.3", "bogus\t1", "# comment", "",
]

# verses of the canto, which scan, so that a query has junctions to classify
VERSES = ["Nel mezzo del cammin di nostra vita",
          "mi ritrovai per una selva oscura,",
          "E come quei che con lena affannata",
          "esta selva selvaggia e aspra e forte",
          "Ma poi ch’i’ fui al piè d’un colle giunto,"]

verse_st = st.one_of(
    st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)),
             max_size=10).map(lambda pairs: "".join(p + s for p, s in pairs)),
    st.sampled_from(VERSES))
header_st = st.builds("{}: Canto {}".format,
                      st.sampled_from(["Inferno", "PURGATORIO", "Paradiso"]),
                      st.sampled_from(["I", "II", "XX"] * 3 + ["IIII", "MMMM", "Q"]))
corpus_st = st.builds(
    lambda header, lines: "\n".join([header, *lines]), header_st,
    st.lists(st.one_of(verse_st, verse_st, verse_st, st.just(""), header_st),
             max_size=7))
word_st = st.sampled_from(PIECES + " ".join(VERSES).split())


@st.composite
def canto_run_st(draw):
    """A header over a run of the canto's lines, which mostly scan, and a
    word of that run: a verse's first one now and then, capitalised."""
    start = draw(st.integers(0, len(CANTO_LINES) - 2))
    lines = CANTO_LINES[start:start + draw(st.integers(2, 12))]
    # words as the verses key them: split after an elision, marks stripped
    verses = [ELISION.sub("’ ", line).split() for line in lines if line]
    firsts = [words[0].strip(MARKS) for words in verses]
    words = [w.strip(MARKS) for words in verses for w in words]
    word = draw(st.sampled_from([w for w in words if w])
                | st.sampled_from(firsts))
    return "\n".join(["Inferno: Canto I", "", *lines]), word


# a corpus and the word a query asks for; mostly a run of the canto
corpus_word_st = st.sampled_from([canto_run_st()] * 4 + [
    st.tuples(corpus_st, word_st)]).flatmap(lambda strategy: strategy)
# mostly the seed lexicon and valid, so that most verses reach the scanner
lexicon_st = st.builds(
    lambda seed, bad: "\n".join([SEED_TEXT if seed else "", *GOOD_LEXICON_ROWS,
                                 *bad]),
    st.sampled_from([True, True, True, False]),
    st.lists(st.sampled_from(BAD_LEXICON_ROWS), max_size=1))
# at most two words added to a verse of at most ten, so no line passes 12
amendment_st = st.builds(
    lambda fields, n: "\t".join(fields[:n]),
    st.tuples(st.sampled_from(["Inferno", "inferno", "Paradiso"]),
              st.sampled_from(["I", "II", "Q", "IIII", ""]),
              st.sampled_from(["1", "2", "x", "-1"]),
              st.sampled_from(["selva", "vita", "nel", ""]),
              st.sampled_from(["selva", "vita e a", "‘", ""]),
              st.sampled_from(["", "note"])),
    st.integers(3, 6))
amendments_st = st.lists(st.one_of(amendment_st, st.just("# comment")),
                         max_size=3).map("\n".join)
rules_st = st.lists(st.sampled_from(RULE_ROWS), max_size=4).map("\n".join)

tail_st = st.sampled_from([b""] * 15 + [b"\xe9\n"])


def file_st(text_st):
    """A file's bytes: the text as UTF-8, now and then with a byte that is not."""
    return st.builds(lambda text, tail: text.encode("utf-8") + tail, text_st,
                     tail_st)


COMMANDS = {
    "scan": ["scan", "--lexicon", "{d}/lexicon", "{verse}"],
    "corpus": ["corpus", "--lexicon", "{d}/lexicon", "--in", "{d}/corpus",
               "--out", "{d}/out"],
    "corpus --amendments": ["corpus", "--lexicon", "{d}/lexicon", "--in",
                            "{d}/corpus", "--out", "{d}/out",
                            "--amendments", "{d}/amendments"],
    # the seed lexicon, so that a query's verses mostly scan; the generated
    # ones reach the same loading code through stats and corpus
    "query": ["query", "--word", "{word}", "--lexicon", str(SEED),
              "--in", "{d}/corpus"],
    "stats": ["stats", "--lexicon", "{d}/lexicon", "--in", "{d}/corpus"],
    "lex check": ["lex", "check", "{d}/lexicon"],
    "lex build --rules": ["lex", "build", "--words", "{d}/corpus",
                          "--rules", "{d}/rules"],
}


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(verse=verse_st, corpus_word=corpus_word_st, corpus_tail=tail_st,
       files=st.fixed_dictionaries({
           "lexicon": file_st(lexicon_st), "amendments": file_st(amendments_st),
           "rules": file_st(rules_st)}))
def check_outcomes(command, printed_rows, verse, corpus_word, corpus_tail,
                   files):
    corpus, word = corpus_word
    files = dict(files, corpus=corpus.encode("utf-8") + corpus_tail)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        for name, data in files.items():
            pathlib.Path(d, name).write_bytes(data)
        argv = [a.format(d=d, verse=verse, word=word) for a in command]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if command[0] == "query" and code == 0:
            # the word's filter skips only verses that hold no occurrence:
            # the table is the one the unfiltered records give; a query
            # that succeeds asked for a word that makes one word token
            [token] = tokenize(normalize_line(word))
            key = token.key
            with contextlib.redirect_stderr(io.StringIO()):
                records = _scan_records(build_parser().parse_args(argv))
                want = occurrences_tsv(classify_word(key, records))
            assert out.getvalue() == want
    printed_rows.append(code == 0 and len(out.getvalue().splitlines()) > 1)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("endecascan: ")


# one run per command, so that each gets its share of examples
@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS)
def test_every_input_ends_in_a_documented_outcome(command):
    printed_rows = []  # one flag per example
    check_outcomes(command, printed_rows)
    if command[0] == "query":
        # a query compares tables only where a verse scans and holds its word
        assert sum(printed_rows) >= len(printed_rows) / 3, \
            f"{sum(printed_rows)} of {len(printed_rows)} queries printed a row"


# argvs for the strict reader: a documented argv of one command with now
# and then a token put in, dropped or repeated, or a run of loose tokens
def leaf_commands(commands, path=()):
    for name, (_, _, args) in commands.items():
        if isinstance(args, dict):
            yield from leaf_commands(args, (*path, name))
        else:
            yield (*path, name), args


LEAVES = list(leaf_commands(cli.COMMANDS))
NAMES = [name for path, _ in LEAVES for name in path]
OPTIONS = sorted({arg for _, args in LEAVES for arg, kind, _ in args
                  if kind is not POSITIONAL})
FLAGS = {arg for _, args in LEAVES for arg, kind, _ in args if kind is FLAG}
# a value or positional: no file by these names exists in the working
# directory, so a command that reads one stops at once; argparse takes
# `-1` and `-` as values, but not `-h` or `--in`
VALUES = ["v", "selva", "", "scan"] * 2 + ["-1", "-", "-h", "--in"]
ODD = ["-h", "--help", "--", "-1", "-", "", "--lexicon=x", "--verb", "--in=v"]
TOKENS = NAMES + OPTIONS + VALUES + ODD


@st.composite
def documented_argv_st(draw):
    path, args = draw(st.sampled_from(LEAVES))
    pieces = []
    for arg, kind, _ in args:
        if kind is POSITIONAL:
            pieces.append([draw(st.sampled_from(VALUES))])
        elif kind is REQUIRED or draw(st.booleans()):
            value = [] if kind is FLAG else [draw(st.sampled_from(VALUES))]
            pieces.append([arg, *value])
    argv = [*path, *(a for piece in draw(st.permutations(pieces)) for a in piece)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        edit = draw(st.sampled_from(["insert", "drop", "repeat", "repeat"]))
        given = [arg for arg in argv if arg in OPTIONS]
        if edit == "insert":
            argv.insert(draw(st.integers(0, len(argv))),
                        draw(st.sampled_from(TOKENS)))
        elif edit == "drop":
            del argv[draw(st.integers(0, len(argv) - 1))]
        elif given:
            # argparse keeps the last value of a repeated option
            option = draw(st.sampled_from(given))
            argv.append(option)
            if option not in FLAGS:
                argv.append(draw(st.sampled_from(VALUES)))
    return argv


argv_st = st.one_of(documented_argv_st(), documented_argv_st(),
                    st.lists(st.sampled_from(TOKENS), max_size=6))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=argv_st)
def check_reader_agrees_with_argparse(argv, accepted):
    ns = _read_argv(argv)
    if ns is not None:
        accepted.append(argv)
        assert vars(ns) == vars(build_parser().parse_args(argv))
    # main gives what argparse alone gives, help and errors included
    with mock.patch.object(cli, "_read_argv", lambda argv: None):
        want = run_main(argv)
    assert run_main(argv) == want


def test_the_strict_reader_reads_what_argparse_reads(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ENDECASCAN_LEXICON", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    accepted = []
    check_reader_agrees_with_argparse(accepted)
    # most documented argvs are read without argparse
    assert len(accepted) >= 50, f"the reader accepted {len(accepted)} argvs"
