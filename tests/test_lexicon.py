import pytest

from endecascan.lexicon import (Lexicon, LexiconParseError,
                                LexiconValidationError, MetricTuple,
                                Propensity, UnknownWord, WordAnalysis,
                                build_lexicon, data_lines, parse_lexicon,
                                serialize_lexicon)

SELVA_LINE = "selva\t1\t0\t1\tsel|va\t-1"


def test_propensity_bounds():
    assert Propensity.prob(0.3).value == 0.3
    assert Propensity.apostrophe().is_apostrophe
    assert not Propensity.prob(1.0).is_apostrophe
    with pytest.raises(LexiconValidationError):
        Propensity.prob(1.5)
    with pytest.raises(LexiconValidationError):
        Propensity(-0.1)


def test_metric_tuple_invariants():
    MetricTuple(Propensity.prob(0), 2, -1, Propensity.prob(1))
    with pytest.raises(LexiconValidationError):
        MetricTuple(Propensity.prob(0), 2, -2, Propensity.prob(1))
    with pytest.raises(LexiconValidationError):
        MetricTuple(Propensity.prob(0), 0, 0, Propensity.prob(1))


def test_word_analysis_validation():
    good = WordAnalysis(("sel", "va"), (-1,), Propensity.prob(0), Propensity.prob(1))
    assert good.form == "selva"
    assert good.tuple == MetricTuple(Propensity.prob(0), 2, -1, Propensity.prob(1))
    with pytest.raises(LexiconValidationError):
        WordAnalysis(("sel", "va"), (1,), Propensity.prob(0), Propensity.prob(1))
    with pytest.raises(LexiconValidationError):
        WordAnalysis(("sel", "va"), (-1, -1), Propensity.prob(0), Propensity.prob(1))
    with pytest.raises(LexiconValidationError):
        WordAnalysis((), (0,), Propensity.prob(0), Propensity.prob(1))
    with pytest.raises(LexiconValidationError, match="primary accent"):
        WordAnalysis(("sel", "va"), (), Propensity.prob(0), Propensity.prob(1))
    with pytest.raises(LexiconValidationError):
        WordAnalysis(("va",), (0,), Propensity.prob(0), Propensity.prob(1), weight=0.0)


def test_parse_single_entry():
    lex = parse_lexicon(SELVA_LINE)
    (analysis,) = lex.lookup("selva")
    assert analysis.tuple == MetricTuple(Propensity.prob(0), 2, -1, Propensity.prob(1))
    assert analysis.syllables == ("sel", "va")
    assert analysis.weight == 1.0


def test_parse_two_weighted_analyses():
    text = ("creature\t0.9\t0\t1\tcre|a|tu|re\t-1\n"
            "creature\t0.1\t0\t1\tcrea|tu|re\t-1\n")
    lex = parse_lexicon(text)
    first, second = lex.lookup("creature")
    assert first.weight == 0.9 and first.n == 4
    assert second.weight == 0.1 and second.n == 3


def test_parse_empty_input():
    lex = parse_lexicon("")
    assert lex.entries == {}
    with pytest.raises(UnknownWord):
        lex.lookup("anything")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(LexiconParseError, match="line 2"):
        parse_lexicon("# comment\nselva\t1\t0\t1\n")
    with pytest.raises(LexiconParseError, match="line 1"):
        parse_lexicon("selva\t1\t0\t1\tsel|va\t-9\n")
    with pytest.raises(LexiconParseError, match="propensity"):
        parse_lexicon("selva\t1\t2\t1\tsel|va\t-1\n")
    with pytest.raises(LexiconParseError, match="line 1: bad propensity 'x'"):
        parse_lexicon("selva\t1\tx\t1\tsel|va\t-1\n")
    with pytest.raises(LexiconParseError, match="line 1: empty key"):
        parse_lexicon("\t1\t0\t1\tsel|va\t-1\n")
    with pytest.raises(LexiconParseError, match="line 1: bad weight 'w'"):
        parse_lexicon("selva\tw\t0\t1\tsel|va\t-1\n")


def test_data_lines_skip_blank_and_comment_lines_and_strip_only_spaces():
    text = ("# head\n\n  \n\t\t\n\t# c\n  # c\n"
            " a\tb \n\tx\t\n c#d\n\u00a0e\u00a0\n")
    assert list(data_lines(text)) == [
        (7, "a\tb"), (8, "\tx\t"), (9, "c#d"), (10, "\u00a0e\u00a0")]
    assert list(data_lines("")) == []
    assert list(data_lines("x\r\ny")) == [(1, "x"), (2, "y")]


# rows the shared reading of data lines changed: spaces at the ends of a
# row go, TABs stay, and `@stress-ineligible` is a first field, not a prefix
def test_a_lexicon_row_may_start_with_spaces():
    lex = parse_lexicon("  " + SELVA_LINE + " \n")
    assert lex == parse_lexicon(SELVA_LINE)


def test_stress_ineligible_is_a_whole_first_field():
    assert parse_lexicon("@stress-ineligible\te\t").stress_ineligible == \
        frozenset({"", "e"})
    assert parse_lexicon(" @stress-ineligible\te ").stress_ineligible == \
        frozenset({"e"})
    with pytest.raises(LexiconParseError,
                       match=r"^line 1: expected 6 fields, got 2$"):
        parse_lexicon("@stress-ineligiblex\te")


# a stress-ineligible word is a key, so it must be case-folded as one is
def test_a_stress_ineligible_word_must_be_case_folded():
    with pytest.raises(LexiconParseError,
                       match=r"^line 2: key 'E' is not case-folded$"):
        parse_lexicon(SELVA_LINE + "\n@stress-ineligible\te\tE")


# and the edge cases it keeps: a TAB at either end of a row is a field (a
# leading one gives `empty key`, pinned above), and a TAB-only line is blank
def test_a_tab_at_the_end_of_a_lexicon_row_is_a_field():
    with pytest.raises(LexiconParseError,
                       match=r"^line 1: expected 6 fields, got 7$"):
        parse_lexicon(SELVA_LINE + "\t")
    assert parse_lexicon("\t\t\n\t# c\n" + SELVA_LINE) == parse_lexicon(SELVA_LINE)


def test_parse_rejects_syllables_that_do_not_spell_the_key():
    with pytest.raises(LexiconParseError, match="line 2: .*do not spell"):
        parse_lexicon("e\t1\t0.9\t0.2\te\t0\nselva\t1\t0.5\t0.5\tsel|v\t-1\n")
    with pytest.raises(LexiconParseError, match="line 1"):
        parse_lexicon("selva\t1\t0\t1\tsel|vaa\t-1\n")


def test_rendered_joins_the_syllables():
    (analysis,) = parse_lexicon(SELVA_LINE).lookup("selva")
    assert analysis.rendered == "sel|va"
    assert (analysis.form, analysis.n) == ("selva", 2)


def test_parse_rejects_unnormalized_keys():
    with pytest.raises(LexiconParseError, match="case-folded"):
        parse_lexicon("Selva\t1\t0\t1\tsel|va\t-1\n")


def test_parse_weight_sum_must_be_one():
    text = ("x\t0.5\t0\t1\tx\t0\n"
            "x\t0.3\t0\t1\tx\t0\n")
    with pytest.raises(LexiconValidationError, match="sum"):
        parse_lexicon(text)


# parse_lexicon parses each distinct weight and accent-list text once; the
# checks that depend on a row (the offsets' range against its syllables,
# duplicate offsets) and on a key (the weight sum) still run on every one
def test_parsing_a_field_text_once_still_checks_every_row():
    with pytest.raises(LexiconParseError,
                       match=r"^line 2: accent offset -1 outside \[0, 0\] for 'e'$"):
        parse_lexicon("selva\t1\t0\t1\tsel|va\t-1\ne\t1\t0\t1\te\t-1\n")
    with pytest.raises(LexiconParseError,
                       match=r"^line 2: duplicate accent offsets for 'selva'$"):
        parse_lexicon("e\t1\t0\t1\te\t0\nselva\t1\t0\t1\tsel|va\t0,0\n")
    with pytest.raises(LexiconValidationError,
                       match=r"^invalid lexicon: weights for 'x' sum to 0.5, not 1$"):
        parse_lexicon("x\t0.5\t0\t1\tx\t0\ny\t0.5\t0\t1\ty\t0\n")
    lex = parse_lexicon("x\t0.5\t0\t1\tx\t0\nx\t0.5\t0\t1\tx\t0\n"
                        "y\t-\t0\t1\ty\t0\nz\t\t0\t1\tz\t0\n")
    # an empty weight and `-` both read as 1
    assert [a.weight for key in "xyz" for a in lex.lookup(key)] == \
        [0.5, 0.5, 1.0, 1.0]


def test_serialize_round_trip_with_apostrophe_sentinel():
    text = ("@stress-ineligible\te\til\n"
            "vid’\t1\t0\tA\tvi|d’\t-1\n"
            "e\t1\t0.9\t0.2\te\t0\n")
    lex = parse_lexicon(text)
    again = parse_lexicon(serialize_lexicon(lex))
    assert again == lex
    assert "A" in serialize_lexicon(lex)


def test_serialize_empty_lexicon_headers_only():
    out = serialize_lexicon(Lexicon({}))
    assert all(line.startswith("#") for line in out.splitlines() if line)
    assert parse_lexicon(out) == Lexicon({})


def test_lookup_known_words(seed_lexicon):
    (selva,) = seed_lexicon.lookup("selva")
    assert selva.n == 2
    beatrice = seed_lexicon.lookup("beatrice")
    assert len(beatrice) == 2
    with pytest.raises(UnknownWord) as err:
        seed_lexicon.lookup("xyzzy")
    assert err.value.key == "xyzzy"


def test_with_override_replaces_without_mutating():
    lex = parse_lexicon("e\t1\t0.9\t0.2\te\t0\n")
    new = lex.with_override("e", [WordAnalysis(
        ("e",), (0,), Propensity.prob(0.5), Propensity.prob(0.5))])
    assert new.lookup("e")[0].p_l == Propensity.prob(0.5)
    assert lex.lookup("e")[0].p_l == Propensity.prob(0.9)


def test_with_override_validates_weights():
    lex = parse_lexicon(SELVA_LINE)
    with pytest.raises(LexiconValidationError):
        lex.with_override("selva", [WordAnalysis(
            ("sel", "va"), (-1,), Propensity.prob(0), Propensity.prob(1), 0.5)])


def test_stress_ineligible_set(seed_lexicon):
    assert not seed_lexicon.is_stress_eligible("che")
    assert not seed_lexicon.is_stress_eligible("’l")
    assert seed_lexicon.is_stress_eligible("selva")


def test_build_lexicon_checks_every_key():
    with pytest.raises(LexiconValidationError):
        build_lexicon({"a": []})


def P(x):
    return Propensity.prob(x)


def test_propensities_and_metric_tuples_are_values_of_their_fields():
    p = P(0.5)
    assert repr(p) == "Propensity(value=0.5)"
    assert repr(Propensity.apostrophe()) == "Propensity(value=2.0)"
    assert p == Propensity(0.5) and hash(p) == hash((0.5,))
    assert p != P(0.25)
    t = MetricTuple(P(0), 2, -1, P(1))
    assert repr(t) == ("MetricTuple(p_l=Propensity(value=0.0), n=2, a=-1, "
                       "p_r=Propensity(value=1.0))")
    assert t == MetricTuple(Propensity(0.0), 2, -1, Propensity(1.0))
    assert hash(t) == hash((P(0), 2, -1, P(1)))
    assert t != MetricTuple(P(0), 2, 0, P(1))


def test_propensity_text_is_made_once_and_read_by_str_alone():
    assert [str(P(x)) for x in (0.0, 0.2, 1.0)] == ["0.0", "0.2", "1.0"]
    assert str(Propensity.apostrophe()) == "A"
    p, q = P(0.2), P(0.2)
    q._text = "changed"  # the text is not a field
    assert p == q and hash(p) == hash(q) == hash((0.2,))
    assert repr(q) == "Propensity(value=0.2)"
    assert str(q) == "changed"


def test_values_of_different_classes_never_compare_equal():
    p = P(0.5)
    assert p.__eq__((0.5,)) is NotImplemented
    assert p != (0.5,) and (0.5,) != p
    t = MetricTuple(P(0), 2, -1, P(1))
    assert t != (P(0), 2, -1, P(1))
    analysis = WordAnalysis(("e",), (0,), P(0), P(1))
    assert analysis != t and t != analysis
    assert analysis.__eq__(t) is NotImplemented


def test_word_analysis_equality_ignores_the_derived_attributes():
    a = WordAnalysis(["sel", "va"], [-1], P(0), P(1))
    b = WordAnalysis(("sel", "va"), (-1,), P(0), P(1), 1.0)
    assert (a.form, a.n, a.rendered) == ("selva", 2, "sel|va")  # read on a only
    assert a == b
    assert hash(a) == hash(b) == hash((("sel", "va"), (-1,), P(0), P(1), 1.0))
    assert repr(a) == repr(b) == (
        "WordAnalysis(syllables=('sel', 'va'), accents=(-1,), "
        "p_l=Propensity(value=0.0), p_r=Propensity(value=1.0), weight=1.0)")
    assert a != WordAnalysis(("sel", "va"), (-1,), P(0), P(0))
    assert a != WordAnalysis(("sel", "va"), (-1,), P(0), P(1), 0.5)


def test_lexicons_compare_by_value_and_are_unhashable():
    text = "@stress-ineligible\te\ne\t1\t0.9\t0.2\te\t0\n"
    lex = parse_lexicon(text)
    assert lex == parse_lexicon(text) == build_lexicon(
        {"e": [WordAnalysis(("e",), (0,), P(0.9), P(0.2))]}, ["e"])
    assert lex != Lexicon(lex.entries)
    assert lex != (lex.entries, lex.stress_ineligible)
    assert repr(Lexicon({})) == "Lexicon(entries={}, stress_ineligible=frozenset())"
    with pytest.raises(TypeError):
        hash(lex)
