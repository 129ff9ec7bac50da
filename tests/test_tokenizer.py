import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from endecascan import tokenizer
from endecascan.tokenizer import (APOSTROPHE, Token, TokenKind, lex_key,
                                  normalize_line, reconstruct, tokenize,
                                  word_tokens)


def words_of(line):
    return [t.word for t in word_tokens(tokenize(normalize_line(line)))]


def test_normalize_unifies_apostrophe_variants():
    assert normalize_line("ch'io") == normalize_line("ch’io")
    assert normalize_line("lʼaltre") == "l’ altre"


def test_normalize_is_idempotent():
    for line in ["Tant’ è amara che poco è più morte;",
                 "ma per trattar del ben ch’i’ vi trovai,",
                 "e ‘Beati misericordes!’ fue"]:
        once = normalize_line(line)
        assert normalize_line(once) == once


def test_normalize_splits_elision_compounds():
    assert normalize_line("ch’i’ vi trovai") == "ch’ i’ vi trovai"
    assert normalize_line("l’altre") == "l’ altre"
    assert normalize_line("dov’or") == "dov’ or"


def test_normalize_keeps_no_split_words():
    assert normalize_line("acco’lo") == "acco’lo"


def test_normalize_aphaeresis_quote_glyph():
    # a left-quote glyph glued to a word is an aphaeresis apostrophe
    assert normalize_line("così ‘mpacciati.") == "così ’mpacciati."
    # ... unless the line closes the quotation later
    assert normalize_line("e ‘Beati misericordes!’ fue") == \
        'e "Beati misericordes!" fue'


def test_normalize_plain_line_unchanged():
    line = "Nel mezzo del cammin di nostra vita"
    assert normalize_line(line) == line


def test_tokenize_empty_line():
    assert tokenize(normalize_line("   ")) == []


def test_tokenize_words_and_punct_context():
    tokens = tokenize(normalize_line("per simil colpa». E più non fé parola."))
    words = word_tokens(tokens)
    assert [t.word for t in words] == \
        ["per", "simil", "colpa", "E", "più", "non", "fé", "parola"]
    colpa = words[2]
    assert colpa.trail == "»."
    assert words[-1].trail == "."


def test_tokenize_elision_stays_single():
    assert words_of("Tant’ è amara") == ["Tant’", "è", "amara"]
    assert words_of("ver’ la costa") == ["ver’", "la", "costa"]
    assert words_of("e ’l sol montava") == ["e", "’l", "sol", "montava"]


def test_tokenize_leading_guillemet():
    tokens = tokenize(normalize_line("«Miserere di me», gridai a lui,"))
    words = word_tokens(tokens)
    assert words[0].word == "Miserere"
    assert words[0].lead == "«"
    assert words[2].trail == "»,"


def test_tokenize_guillemet_after_colon():
    words = word_tokens(tokenize(normalize_line("Rispuosemi: «Non omo, omo già fui,")))
    assert words[0].trail == ":"
    assert words[1].lead == "«"


def test_word_tokens_never_have_empty_keys(canto_verses):
    for verse in canto_verses:
        for token in word_tokens(tokenize(normalize_line(verse))):
            assert token.key
            assert any(ch.isalpha() or ch == APOSTROPHE for ch in token.word)


def test_lex_key():
    assert lex_key("Nel") == "nel"
    assert lex_key("Bëatrice") == "bëatrice"
    assert lex_key("Bëatrice") != lex_key("Beatrice")
    assert lex_key("ch’") == "ch’"


def test_reconstruction_round_trip(canto_verses):
    for verse in canto_verses:
        normalized = normalize_line(verse)
        assert reconstruct(tokenize(normalized)) == normalized


def test_standalone_punct_token_attaches_right():
    tokens = tokenize("« Miserere")
    kinds = [t.kind for t in tokens]
    assert kinds == [TokenKind.PUNCT, TokenKind.WORD]
    assert word_tokens(tokens)[0].lead == "«"


def test_equal_tokens_hash_equal():
    a = tokenize(normalize_line("«Tant’ è amara», disse"))
    b = tokenize(normalize_line("«Tant’ è amara», disse"))
    assert a == b
    assert [hash(t) for t in a] == [hash(t) for t in b]
    assert Token(TokenKind.WORD, "e", True, "e", "e") == \
        Token(TokenKind.WORD, "e", True, "e", "e", "", "")
    assert len({*a, *b}) == len(a)


def test_tokens_are_values_of_their_seven_fields():
    fields = (TokenKind.WORD, "«Tant’", True, "Tant’", "tant’", "«", "")
    tok = Token(*fields[:6])
    assert repr(tok) == (
        "Token(kind=<TokenKind.WORD: 'word'>, surface='«Tant’', "
        "space_before=True, word='Tant’', key='tant’', lead='«', trail='')")
    assert tok == Token(*fields) and hash(tok) == hash(fields)
    assert tok != fields and fields != tok
    assert tok.__eq__(fields) is NotImplemented
    assert tok != Token(TokenKind.PUNCT, *fields[1:])
    assert Token(TokenKind.PUNCT, ",", False) == \
        Token(TokenKind.PUNCT, ",", False, "", "", "", "")


# letters of both cases, with and without accents, apostrophes and their
# look-alikes, the left quote, trailing punctuation and opening marks
MIXED_LETTERS = "abcelmnoqrsuvzàèéìòùïëAEIOSTÈÉÒÙÏİ"
APOSTROPHES = ["’", "'", "ʼ", "′", "`", "‘"]
PUNCT_POOL = [",", ".", ";", ":", "!", "?", "«", "»", "»,", "?».", "’"]
OPENERS = ["«", "“", "(", '"']
fragment_st = st.one_of(
    st.text(alphabet=MIXED_LETTERS, min_size=1, max_size=7),
    st.sampled_from(APOSTROPHES + PUNCT_POOL + OPENERS
                    + ["acco’lo", "Entra'mi", "”", ")"]),
    st.sampled_from([" ", " ", "  "]))
raw_line_st = st.lists(fragment_st, max_size=16).map("".join)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw_line_st)
def test_front_end_matches_reference(line):
    tokenizer._ELIDED.clear()
    normalized = normalize_line(line)
    # again, with this line's pieces now in the elision table
    assert normalize_line(line) == normalized
    expected = oracle.normalize_line(line)
    if oracle.normalize_line(expected) == expected:
        assert normalized == expected
    else:
        # the reference leaves a U+2018 inside a quote pair to a second
        # pass; the front end decides it in the first
        assert "‘" not in normalized
        assert normalize_line(normalized) == normalized
    for text in (normalized, line):
        expected = [token_fields(t) for t in oracle.tokenize(text)]
        assert [token_fields(t) for t in tokenize(text)] == expected
        # again, with this line's word tokens now in the shared table
        assert [token_fields(t) for t in tokenize(text)] == expected


def token_fields(t):
    return (t.kind, t.surface, t.space_before, t.word, t.key, t.lead, t.trail)


# every mark of the reference sampler one at a time, with digits, numerics
# that are not letters, underscores and tabs; quote glyphs drawn often
wide_line_st = st.lists(st.sampled_from(
    list(MIXED_LETTERS) + APOSTROPHES + PUNCT_POOL + OPENERS
    + list("”)0123456789¹½_\t ")) | st.sampled_from(["‘", "’", "'", " "]),
    max_size=40).map("".join)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(wide_line_st, raw_line_st))
def test_normalize_is_idempotent_on_any_line(line):
    once = normalize_line(line)
    assert "‘" not in once
    assert normalize_line(once) == once


def test_a_quote_left_inside_a_pair_is_decided_in_one_pass():
    assert normalize_line("‘‘'") == '"""'
    assert normalize_line("‘x ‘mpaccia !’") == '"x ’mpaccia !"'


@pytest.mark.parametrize("line", ["‘" * 20_000, "‘a" * 10_000,
                                  "a" * 20_000 + "’", "vita" + " ," * 20_000,
                                  " «" * 20_000 + " vita"],
                         ids=["left-quotes", "left-quote-letter-pairs",
                              "letters-then-apostrophe", "word-then-marks",
                              "marks-then-word"])
def test_front_end_is_linear_on_long_lines(line):
    start = time.perf_counter()
    tokenize(normalize_line(line))
    assert time.perf_counter() - start < 1.0


def test_a_numeric_mark_after_a_word_is_its_trail():
    # str.isalpha is the letter test: a footnote mark is not part of a word
    assert [token_fields(t) for t in tokenize("cammin¹")] == [
        (TokenKind.WORD, "cammin¹", False, "cammin", "cammin", "", "¹")]


@pytest.fixture
def empty_tables(monkeypatch):
    """The two word-token tables, emptied: a line's first word, and the
    words after it."""
    tables = {}, {}
    monkeypatch.setattr(tokenizer, "_FIRST_WORDS", tables[0])
    monkeypatch.setattr(tokenizer, "_LATER_WORDS", tables[1])
    return tables


@pytest.mark.parametrize("lines", [("vita nostra", "nostra vita"),
                                   ("nostra vita", "vita nostra")],
                         ids=["first-then-later", "later-then-first"])
def test_a_shared_word_keeps_its_space_before(empty_tables, lines):
    for line in lines:
        assert [(t.surface, t.space_before) for t in tokenize(line)] == \
            [(piece, i > 0) for i, piece in enumerate(line.split())]
    # a repeated line is built from the same token objects
    assert all(a is b for a, b in zip(tokenize(lines[1]), tokenize(lines[1])))


def test_a_mark_changes_only_its_own_line(empty_tables):
    assert [t.trail for t in word_tokens(tokenize("vita ,"))] == [","]
    assert [t.trail for t in tokenize("vita")] == [""]
    assert [t.trail for t in word_tokens(tokenize("vita ,"))] == [","]


# the bounds of the three shared tables, at which the module docstring
# measures their memory: entries per table, and characters per piece
TABLE_BOUND, PIECE_BOUND = 8192, 32


def test_the_shared_table_is_bounded(empty_tables):
    letters = "abcdefghilmnopqrstuvz"
    pieces = ["".join(letters[i // len(letters) ** k % len(letters)]
                      for k in range(4)) for i in range(TABLE_BOUND + 100)]
    assert len(set(pieces)) == len(pieces)
    first, later = empty_tables
    # every piece once as a line's first word and once after it, the
    # bound checked after each insertion
    for piece in pieces:
        tokenize(piece)
        tokenize("vita " + piece)
        assert 0 < len(first) <= TABLE_BOUND
        assert 0 < len(later) <= TABLE_BOUND
    # a piece at the bound is kept, a longer one built every time
    for size, kept in [(PIECE_BOUND, True), (PIECE_BOUND + 1, False)]:
        piece = "a" * size
        assert tokenize(piece)[0].word == piece
        assert tokenize("vita " + piece)[1].word == piece
        assert (piece in first, piece in later) == (kept, kept)


def test_the_elision_table_is_bounded(monkeypatch):
    table = {}
    monkeypatch.setattr(tokenizer, "_ELIDED", table)
    letters = "abcdefghilmnopqrstuvz"
    pieces = ["l’" + "".join(letters[i // len(letters) ** k % len(letters)]
                             for k in range(4)) for i in range(TABLE_BOUND + 100)]
    assert len(set(pieces)) == len(pieces)
    # one piece a line, the bound checked after each insertion
    for piece in pieces:
        normalize_line(piece)
        assert 0 < len(table) <= TABLE_BOUND
    for start in range(0, len(pieces), 100):
        line = " ".join(pieces[start:start + 100])
        assert normalize_line(line) == line.replace("’", "’ ")
    assert normalize_line("vita nostra") == "vita nostra"
    assert "vita" not in table  # a piece without an apostrophe is not kept
    for size, kept in [(PIECE_BOUND, True), (PIECE_BOUND + 1, False)]:
        piece = "l’" + "a" * (size - 2)
        assert normalize_line(piece) == "l’ " + "a" * (size - 2)
        assert (piece in table) == kept
