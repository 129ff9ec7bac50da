import pathlib

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from endecascan import wordrules
from endecascan.lexicon import (InputError, LexiconParseError,
                                LexiconValidationError, Propensity,
                                parse_lexicon, serialize_lexicon)
from endecascan.scander import ScanStatus, scan_verse
from endecascan.tokenizer import lex_key, normalize_line, tokenize, word_tokens
from endecascan.wordrules import (RuleConfig, WordRuleError, build_analyses,
                                  build_draft_lexicon, default_config,
                                  init_propensities, load_nondet_table,
                                  load_rule_config, locate_accent,
                                  split_syllables)
from test_cli_fuzz import RULE_ROWS
from test_tokenizer import MIXED_LETTERS

HIATUS_FILE = (pathlib.Path(__file__).parents[1] / "src" / "endecascan"
               / "data" / "hiatus_words.txt")


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.mark.parametrize("form,expected", [
    ("selva", ["sel", "va"]),
    ("oscura", ["o", "scu", "ra"]),
    ("Bëatrice", ["Bë", "a", "tri", "ce"]),
    # the rules read unmarked strong-vowel contact as a hiatus; the
    # corpus-dominant contracted "Bea" ships as dictionary data instead
    ("Beatrice", ["Be", "a", "tri", "ce"]),
    ("vid’", ["vi", "d’"]),
    ("mezzo", ["mez", "zo"]),
    ("nostra", ["no", "stra"]),
    ("acqua", ["ac", "qua"]),
    ("figliuol", ["fi", "gliuol"]),
    ("paura", ["pa", "u", "ra"]),
    ("maestro", ["ma", "e", "stro"]),
    ("gioia", ["gio", "ia"]),
    ("aiutami", ["a", "iu", "ta", "mi"]),
    ("viaggio", ["vi", "ag", "gio"]),
    ("sapienza", ["sa", "pi", "en", "za"]),
    ("sapïenza", ["sa", "pï", "en", "za"]),
    ("’mpediva", ["’m", "pe", "di", "va"]),
    ("ch’", ["ch’"]),
    ("tant’", ["tan", "t’"]),
    ("miei", ["miei"]),
    ("suoi", ["suoi"]),
    ("lasciammo", ["la", "sciam", "mo"]),
    ("avrà", ["av", "rà"]),
    # "İ" lowercases to two characters; the split still counts one
    ("İtalia", ["İ", "ta", "lia"]),
    # constructed clusters: s opens a syllable before a legal onset of up
    # to three letters, itself led by s (sstr), and before no other
    ("asstro", ["a", "sstro"]),
    ("assstro", ["as", "sstro"]),
    ("asvro", ["asv", "ro"]),
])
def test_split_syllables(cfg, form, expected):
    assert split_syllables(form, cfg) == expected


def test_split_rejects_empty(cfg):
    with pytest.raises(WordRuleError):
        split_syllables("", cfg)
    with pytest.raises(WordRuleError, match="empty syllable list"):
        init_propensities("selva", [], cfg)


def test_split_no_vowel_fallback(cfg, capsys):
    assert split_syllables("pss", cfg) == ["pss"]
    assert capsys.readouterr().err == (
        "endecascan: no vowel in 'pss', treating as one syllable\n")


def split_at_every_cut(form, cfg):
    """split_syllables as it was first written: it tries every cut of a
    consonant gap, so its time is quadratic in the gap."""
    low = lex_key(form)
    nuclei = wordrules._nuclei(low, low in cfg.hiatus_exception_words)
    if not nuclei:
        return [form]
    boundaries = [0]
    for (_, gap_start), (gap_end, _) in zip(nuclei, nuclei[1:]):
        cut = gap_end
        for candidate in range(gap_start, gap_end):
            if wordrules._legal_onset(low[candidate:gap_end]):
                cut = candidate
                break
        boundaries.append(cut)
    boundaries.append(len(form))
    return [form[a:b] for a, b in zip(boundaries, boundaries[1:])]


# a form as vowel runs between consonant runs, some of them long.  A run
# ends in a cluster near the longest legal onset (sstri, sgliu, ...), and
# its other letters are those of the legal onsets, the glides, the
# apostrophe and a few that open none
vowel_run_st = st.text(alphabet="aeiouàèéìòùïëAEIOÈÉÒÙÏ", min_size=1, max_size=3)
onset_st = st.tuples(
    st.sampled_from(["", "s", "S"]), st.sampled_from(["", "s"]),
    st.sampled_from(["", "t", "tr", "gl", "ch", "gn", "qu", "b", "’"]),
    st.sampled_from(["", "i", "u"]), st.sampled_from(["", "i", "u"])).map("".join)
consonant_run_st = st.tuples(st.text(alphabet="sbcglrqhiutpnmdvzSCGT’", max_size=40),
                             onset_st).map("".join)
form_st = st.tuples(consonant_run_st,
                    st.lists(st.tuples(vowel_run_st, consonant_run_st),
                             min_size=1, max_size=4)).map(
    lambda t: t[0] + "".join(v + c for v, c in t[1]))


@settings(max_examples=500, deadline=None)
@given(form=form_st)
def test_split_tries_only_the_cuts_that_can_open_an_onset(cfg, form):
    assert split_syllables(form, cfg) == split_at_every_cut(form, cfg)


def test_concatenation_property(cfg, seed_lexicon):
    for key in seed_lexicon.entries:
        assert "".join(split_syllables(key, cfg)) == key


def test_hiatus_list_regression(cfg):
    """Every shipped hiatus word splits its marked vowel pair."""
    words = [w for w in HIATUS_FILE.read_text("utf-8").splitlines()
             if w and not w.startswith("#")]
    assert len(words) > 100
    for word in words:
        with_list = split_syllables(word, cfg)
        without = split_syllables(
            word, load_rule_config("hiatus\t__none__"))
        assert len(with_list) > len(without), word


@pytest.mark.parametrize("form,expected", [
    ("carità", [0]),
    ("vita", [-1]),
    ("cammin", [0]),
    ("trovai", [0]),
    ("caninamente", [-1, -3]),
    ("mirabilmente", [-1, -3]),
    ("glorïosamente", [-1, -3]),
    ("frodolente", [-1]),
    ("mente", [-1]),
    # the fewest syllables that take the -mente secondary
    ("lentamente", [-1, -3]),
    # a constructed form: a written accent on the stem is its one stress
    ("caritàmente", [-2]),
])
def test_locate_accent(cfg, form, expected):
    sylls = split_syllables(form, cfg)
    assert locate_accent(form, sylls) == expected


def test_locate_accent_offsets_in_range(cfg, seed_lexicon):
    for key in seed_lexicon.entries:
        sylls = split_syllables(key, cfg)
        n = len(sylls)
        for offset in locate_accent(key, sylls):
            assert -(n - 1) <= offset <= 0


@pytest.mark.parametrize("form,sylls,p_l,p_r", [
    ("selva", ["sel", "va"], 0.0, 1.0),
    ("oscura", ["o", "scu", "ra"], 1.0, 1.0),
    ("e", ["e"], 0.9, 0.2),
    ("Iacopo", ["Ia", "co", "po"], 0.0, 1.0),
    ("disio", ["di", "sio"], 0.0, 0.0),
    ("tra", ["tra"], 0.0, 0.0),
    ("carità", ["ca", "ri", "tà"], 0.0, 0.1),
    ("gridai", ["gri", "dai"], 0.0, 0.0),
    ("segui", ["se", "gui"], 0.0, 1.0),
    # calibrated monosyllables that seed.lex does not hold
    ("ad", ["ad"], 0.9, 0.2),
    ("fra", ["fra"], 0.0, 0.1),
    ("su", ["su"], 0.0, 0.2),
    ("va", ["va"], 0.0, 0.1),
    # a mute h: the vowel after it meets the previous word
    ("hanno", ["han", "no"], 1.0, 1.0),
])
def test_init_propensities(cfg, form, sylls, p_l, p_r):
    left, right = init_propensities(form, sylls, cfg)
    assert left == Propensity.prob(p_l)
    assert right == Propensity.prob(p_r)


def test_init_propensities_apostrophes(cfg):
    left, right = init_propensities("vid’", ["vi", "d’"], cfg)
    assert left == Propensity.prob(0)
    assert right.is_apostrophe
    left, right = init_propensities("’l", ["’l"], cfg)
    assert left.is_apostrophe
    assert right == Propensity.prob(0)


def test_build_analyses_regular(cfg):
    (cammin,) = build_analyses("cammin", cfg)
    assert cammin.syllables == ("cam", "min")
    assert cammin.accents == (0,)
    assert cammin.p_l == Propensity.prob(0)
    assert cammin.p_r == Propensity.prob(0)
    assert cammin.weight == 1.0
    # "İ" keys as "i", one character for one: the syllables spell the key
    (italia,) = build_analyses("İtalia", cfg)
    assert (italia.syllables, italia.accents) == (("i", "ta", "lia"), (-1,))


def test_build_analyses_nondeterministic(cfg, seed_lexicon):
    table = load_nondet_table(seed_lexicon)
    two = build_analyses("migliaio", cfg, table)
    assert [a.syllables for a in two] == [("mi", "glia", "io"), ("mi", "gliaio")]
    assert [a.weight for a in two] == [0.9, 0.1]


def test_build_analyses_avea_variants(cfg, seed_lexicon):
    # shipped default reads avea as a diphthong; the hiatus variant is opt-in
    (default,) = build_analyses("avea", cfg, load_nondet_table(seed_lexicon))
    assert default.syllables == ("a", "vea")
    assert default.weight == 1.0
    diphthong, hiatus = build_analyses(
        "avea", cfg, load_nondet_table(seed_lexicon, all_variants=True))
    assert (diphthong.p_l.value, diphthong.n, diphthong.p_r.value) == (1.0, 2, 0.1)
    assert (hiatus.p_l.value, hiatus.n, hiatus.p_r.value) == (1.0, 3, 1.0)
    assert (diphthong.weight, hiatus.weight) == (0.9, 0.1)
    # a draft lexicon reads it both ways only when asked to
    assert len(build_draft_lexicon(["avea"], cfg).entries["avea"]) == 1


def fake_nondet_table(monkeypatch, text):
    """Make wordrules read text as the bundled nondet_words.tsv, and every
    other bundled file as shipped."""
    bundled_text = wordrules.bundled_text
    monkeypatch.setattr(wordrules, "bundled_text", lambda name: (
        text if name == "nondet_words.tsv" else bundled_text(name)))


@pytest.mark.parametrize("row, message", [
    ("avea\t1\t1\t0.1\ta|via\t0", "syllables 'a|via' do not spell key 'avea'"),
    ("avea\t1\t1", "expected 6 fields, got 3"),
])
def test_nondet_table_rows_are_checked_as_lexicon_rows(monkeypatch, seed_lexicon,
                                                       row, message):
    fake_nondet_table(monkeypatch,
                      "# key\tweight\tp_l\tp_r\tsyllabification\taccents\n"
                      f"creature\t1\t0\t1\tcre|a|tu|re\t-1\n{row}\n")
    with pytest.raises(LexiconParseError) as exc:
        load_nondet_table(seed_lexicon, all_variants=True)
    assert exc.value.line_no == 3
    assert str(exc.value) == f"line 3: {message}"


def test_nondet_table_agrees_with_the_seed_dictionary(seed_lexicon):
    # without all_variants the table drafts what the dictionary holds,
    # and it holds every key the dictionary reads more than one way
    table = load_nondet_table(seed_lexicon)
    assert len(table) == 31
    for key, variants in table.items():
        assert tuple(variants) == seed_lexicon.entries[key], key
    multi = {key for key, analyses in seed_lexicon.entries.items()
             if len(analyses) > 1}
    assert len(multi) == 19 and multi <= set(table)
    # all_variants reads each of the 12 opt-in families both ways instead
    both = load_nondet_table(seed_lexicon, all_variants=True)
    assert set(both) == set(table)
    assert sorted(len(both[k]) for k in table if both[k] != table[k]) == [2] * 12


def test_drafts_are_keyed_as_the_scanner_keys_words(cfg):
    lex = build_draft_lexicon(["İtalia", "Selva", "selva"], cfg)
    assert list(lex.entries) == ["italia", "selva"]
    (italia,) = lex.entries["italia"]
    assert "".join(italia.syllables) == "italia"


def test_rule_config_rejects_overlap():
    with pytest.raises(Exception):
        load_rule_config("never-synalephe\te\nprobabilistic\te\t0.9\t0.2")
    # and a probability outside [0, 1] given to the constructor directly
    with pytest.raises(LexiconValidationError, match="out of range: 1.5"):
        RuleConfig(diphthong_boundary_p=1.5)


def test_rule_config_file_round():
    cfg = load_rule_config("# a comment line\n"
                           "probabilistic\tqua\t0.5\t0.5\n"
                           "never-synalephe\tbe\tme\n"
                           "hiatus\tviaggio\n"
                           "accented-final-p-r\t0.2\n")
    assert cfg.probabilistic_monosyllables["qua"] == (0.5, 0.5)
    assert cfg.never_synalephe_monosyllables == frozenset({"be", "me"})
    assert cfg.accented_final_default_p_r == 0.2
    # a probability may be 0 or 1
    bounds = load_rule_config("diphthong-p\t0\naccented-final-p-r\t1\n")
    assert (bounds.diphthong_boundary_p, bounds.accented_final_default_p_r) \
        == (0.0, 1.0)
    # diphthong-p reaches a diphthong, not a spelling-only glide after g or
    # gl at the start of a syllable: none in glielo's first syllable, nor
    # in the stressed last one of the Latin sergius
    glides = load_rule_config("diphthong-p\t0.5\n")
    assert init_propensities("glielo", ["glie", "lo"], glides)[0] == \
        Propensity.prob(0.0)
    assert init_propensities("sergius", ["ser", "gius"], glides)[1] == \
        Propensity.prob(0.0)


def test_rule_rows_lose_the_spaces_at_their_ends_and_keep_their_tabs():
    assert load_rule_config("never-synalephe\tbe\tme ") == \
        load_rule_config("never-synalephe\tbe\tme")
    assert load_rule_config("  hiatus\tviaggio  ").hiatus_exception_words == \
        frozenset({"viaggio"})
    # a trailing TAB is an empty last value, as in every other data file
    assert load_rule_config("hiatus\tfoo\t").hiatus_exception_words == \
        frozenset({"", "foo"})
    with pytest.raises(WordRuleError, match=r"^line 1: expected word, p_l, p_r$"):
        load_rule_config("probabilistic\tx\t0.5\t0.25\t")
    assert load_rule_config("\t\t\n\t# c\n") == RuleConfig()


def test_empty_rule_file_is_the_default_rule_config():
    # a rules file replaces the bundled hiatus list rather than extending it
    assert load_rule_config("") == RuleConfig()
    assert load_rule_config("") != default_config()


# the seed dictionary's single-analysis keys whose rule draft differs from
# the hand entry, per field; a measurement of the drafts, not a target
DRAFT_DISAGREEMENTS = {
    "syllables": {
        "aere", "ahi", "avea", "avean", "com’", "dicea", "disio", "dovea",
        "facea", "parea", "potea", "sii", "solea", "tenea", "vedea"},
    "primary accent": {
        "ahi", "aiutami", "anima", "animo", "avea", "cesare", "combatter",
        "com’", "dicea", "disio", "dovea", "eran", "esser", "essere",
        "ettore", "facea", "femmine", "furon", "lagrime", "misericordes",
        "parea", "partia", "patrïa", "pelago", "perch’", "pinser", "potea",
        "rispuosemi", "scendere", "sii", "simil", "solea", "speran",
        "spiriti", "tenea", "umile", "uscia", "vagliami", "vedea",
        "venendomi", "vergine", "vidila", "vipera", "viver"},
    "propensities": {
        "ahi", "avea", "com’", "cu’", "dicea", "disio", "dovea", "facea",
        "parea", "partia", "potea", "sii", "solea", "tenea", "uscia",
        "vedea"},
}


def test_drafts_against_the_seed_dictionary(cfg, seed_lexicon):
    single = {key: analyses[0] for key, analyses in seed_lexicon.entries.items()
              if len(analyses) == 1}
    differ = {field: set() for field in DRAFT_DISAGREEMENTS}
    for key, entry in single.items():
        (draft,) = build_analyses(key, cfg)
        if draft.syllables != entry.syllables:
            differ["syllables"].add(key)
        if draft.accents[0] != entry.accents[0]:
            differ["primary accent"].add(key)
        if (draft.p_l, draft.p_r) != (entry.p_l, entry.p_r):
            differ["propensities"].add(key)
    assert differ == DRAFT_DISAGREEMENTS
    agree = {field: len(single) - len(keys) for field, keys in differ.items()}
    assert (len(single), agree) == (608, {
        "syllables": 593, "primary accent": 564, "propensities": 592})
    assert len(single) - len(set().union(*differ.values())) == 561  # all three


def loads_alone(row):
    try:
        load_rule_config(row)
    except InputError:
        return False
    return True


# forms of letters of both cases, accented and dieresis vowels, İ and the
# apostrophe; a rules config of the fuzz rows that load
draft_line_st = st.lists(st.text(alphabet=MIXED_LETTERS + "’'", min_size=1,
                                  max_size=7), min_size=1, max_size=12).map(" ".join)
draft_rules_st = st.none() | st.lists(
    st.sampled_from([row for row in RULE_ROWS if loads_alone(row)]),
    max_size=4).map("\n".join)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(line=draft_line_st, rules=draft_rules_st, all_variants=st.booleans())
def test_drafts_are_dictionaries_the_scanner_can_use(line, rules, all_variants):
    if rules is None:
        cfg = default_config()
    else:
        try:
            cfg = load_rule_config(rules)
        except InputError:  # rows that load alone may overlap
            assume(False)
    tokens = tokenize(normalize_line(line))
    keys = [token.key for token in word_tokens(tokens)]
    lex = build_draft_lexicon(keys, cfg, all_variants=all_variants)
    assert set(lex.entries) == set(keys)
    assert parse_lexicon(serialize_lexicon(lex)) == lex
    for key, analyses in lex.entries.items():
        for a in analyses:
            assert "".join(a.syllables) == key and all(a.syllables)
        assert sum(a.weight for a in analyses) == pytest.approx(1.0, abs=1e-9)
    assert scan_verse(tokens, lex).status not in (
        ScanStatus.FAIL_BAD_ANALYSIS, ScanStatus.FAIL_UNKNOWN_WORD)
