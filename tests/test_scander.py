import hashlib
import pathlib
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from endecascan import scander
from endecascan.corpus import parse_corpus
from endecascan.lexicon import (PROB_ONE, PROB_ZERO, Propensity, WordAnalysis,
                                build_lexicon)
from endecascan.scander import (AccentMark, BadAnalysisError, ScanConfig,
                                ScanState, ScanStatus, VerseScansion, advance,
                                finalize, meld_probability, scan_verse)
from endecascan.tokenizer import (Token, TokenKind, normalize_line, tokenize,
                                  word_tokens)
from oracle import _meld, enumerate_states
from test_acceptance import PERMISSIVE, PUNCT_POOL, VERSE_WORDS, verse_st

A = Propensity.apostrophe()


def P(x):
    return Propensity.prob(x)


def scan(text, lex, **kw):
    return scan_verse(tokenize(normalize_line(text)), lex, ScanConfig(**kw))


def word_token(word, lead="", trail=""):
    return Token(TokenKind.WORD, lead + word + trail, True, word,
                 word.lower(), lead, trail)


@pytest.mark.parametrize("p_r,p_l,expected", [
    (P(1), P(1), 1.0),
    (P(1), P(0.9), 0.9),
    (A, P(0.1), 1.0),
    (P(0), P(1), 0.0),
    (P(0.5), P(0.5), 0.25),
    (P(0.1), A, 1.0),
    (A, A, 1.0),
])
def test_meld_probability(p_r, p_l, expected):
    assert meld_probability(p_r, p_l) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("p_r", [A, P(0), P(0.1), P(0.5), P(1)])
@pytest.mark.parametrize("p_l", [A, P(0), P(0.1), P(0.5), P(1)])
def test_meld_probability_matches_the_oracle(p_r, p_l):
    assert meld_probability(p_r, p_l) == _meld(p_r, p_l)


def test_meld_apostrophe_against_consonant_stays_apart():
    # "ch' i' |vi": the trailing apostrophe cannot meld into a consonant
    assert meld_probability(A, P(0)) == 0.0
    assert meld_probability(P(0), A) == 0.0


def test_scan_renders_capitalised_words_and_rejects_mismatched_analyses():
    lex = build_lexicon({"selva": [WordAnalysis(("sel", "va"), (-1,), P(0), P(1))]})
    assert scan("Selva selva", lex, require_a10=False).final_states[0].text \
        == "|Sel|va |sel|va"
    # too short, or as long as the word with other letters
    for wrong in (("sel", "v"), ("bo", "sco")):
        bad = build_lexicon({
            "selva": [WordAnalysis(wrong, (-1,), P(0), P(1))],
            "oscura": [WordAnalysis(("o", "scu", "ra"), (-1,), P(1), P(1))]})
        for text in ("selva", "Selva", "oscura selva"):
            assert scan(text, bad) == VerseScansion(
                None, (), ScanStatus.FAIL_BAD_ANALYSIS, ())


def test_advance_rejects_a_mismatched_analysis_before_any_successor():
    for wrong in (("sel", "v"), ("bo", "sco")):
        bad = WordAnalysis(wrong, (-1,), P(0), P(1))
        for states in ([], [ScanState()]):
            for token in (word_token("selva"), word_token("Selva")):
                with pytest.raises(BadAnalysisError, match="does not cover"):
                    advance(states, token, (bad,), 0, True, ScanConfig())


def oracle_in_scan_order(tokens, lex):
    """enumerate_states' readings in the order scan_verse makes them: word
    by word, each analysis in turn, the melded branch first.  The oracle
    takes the analyses of every word first and then the meld flags."""
    options = [lex.lookup(t.key) for t in word_tokens(tokens)]
    keys = []
    for choice in product(*(range(len(o)) for o in options)):
        analyses = [o[c] for o, c in zip(options, choice)]
        branches = [(False,)]
        for left, right in zip(analyses, analyses[1:]):
            m = _meld(left.p_r, right.p_l)
            branches.append((False,) if m <= 0.0 else (True,) if m >= 1.0
                            else (True, False))
        for melds in product(*branches):
            keys.append([x for c, melded in zip(choice, melds)
                         for x in (c, not melded)])
    states = enumerate_states(tokens, lex)
    return [states[k] for k in sorted(range(len(states)), key=keys.__getitem__)]


# a word as a line may write it: capitalised or not, with marks of the
# acceptance pool (and two more openers) before and after it, each glued
# to it or standing alone
marked_word_st = st.builds(
    lambda word, capital, lead, trail, glued:
        (lead + ("" if glued else " ")
         + (word[0].upper() + word[1:] if capital else word)
         + ("" if glued else " ") + trail),
    st.sampled_from(VERSE_WORDS), st.booleans(),
    st.sampled_from([""] * 6 + PUNCT_POOL + ["“", "("]),
    st.sampled_from([""] * 6 + PUNCT_POOL), st.booleans())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(words=st.lists(marked_word_st, min_size=1, max_size=6))
def test_rendered_states_match_the_oracle(seed_lexicon, words):
    # every final state, in the order the scan makes them: plain words
    # (their analysis's pieces) and capitalised or marked ones (cut from
    # their letters) meet at forked positions
    tokens = tokenize(normalize_line(" ".join(words)))
    engine = scan_verse(tokens, seed_lexicon, PERMISSIVE)
    # a glued apostrophe can make a word that the lexicon lacks
    assume(engine.status is not ScanStatus.FAIL_UNKNOWN_WORD)
    want = oracle_in_scan_order(tokens, seed_lexicon)
    assert len(engine.final_states) == len(want)
    for s, d in zip(engine.final_states, want):
        assert (s.text, s.count, s.a4, s.a6, s.a10) \
            == (d["text"], d["count"], d["a4"], d["a6"], d["a10"])
        assert abs(s.likelihood - d["likelihood"]) <= 1e-12, (s, d)


def test_equal_accent_marks_hash_equal():
    a, b = AccentMark(4, True, True, 1), AccentMark(4, True, True, 1)
    assert a == b and hash(a) == hash(b)
    assert a != AccentMark(4, False, True, 1)
    assert len({a, b, AccentMark(6, True, True, 2)}) == 2
    assert repr(a) == \
        "AccentMark(position=4, primary=True, eligible=True, word_index=1)"


E_ANALYSIS = WordAnalysis(("e",), (0,), P(0.9), P(0.2))


def test_scan_config_is_a_checked_value():
    cfg = ScanConfig()
    assert repr(cfg) == (
        "ScanConfig(require_a10=True, prefer_a4_or_a6=True, "
        "max_total_syllables=11, likelihood_floor=1e-09, tie_epsilon=1e-12, "
        "incremental_pruning=True)")
    fields = (True, True, 11, 1e-9, 1e-12, True)
    assert cfg == ScanConfig(*fields) and hash(cfg) == hash(fields)
    assert cfg != ScanConfig(incremental_pruning=False)
    assert cfg != fields and cfg.__eq__(fields) is NotImplemented
    for bad in ({"max_total_syllables": 0}, {"tie_epsilon": 0},
                {"likelihood_floor": -1.0}):
        with pytest.raises(ValueError):
            ScanConfig(**bad)


def test_scan_config_accepts_a_budget_of_one_syllable():
    assert ScanConfig(max_total_syllables=1).max_total_syllables == 1


def test_verse_scansions_are_values_of_their_fields():
    lex = build_lexicon({"e": [E_ANALYSIS]})
    a, b = (scan("e", lex, require_a10=False) for _ in range(2))
    s = a.chosen
    assert a == b and hash(a) == hash(b)
    status = ScanStatus.WARN_NO_CAESURA
    assert hash(a) == hash((s, (s,), status, (s,), None, None))
    assert repr(a) == (
        f"VerseScansion(chosen={s!r}, admissible=({s!r},), "
        f"status=<ScanStatus.WARN_NO_CAESURA: 'warn-no-caesura'>, "
        f"final_states=({s!r},), unknown_key=None, best_rejected=None)")
    unknown = VerseScansion(None, (), ScanStatus.FAIL_UNKNOWN_WORD,
                            unknown_key="x")
    assert repr(unknown) == (
        "VerseScansion(chosen=None, admissible=(), "
        "status=<ScanStatus.FAIL_UNKNOWN_WORD: 'fail-unknown-word'>, "
        "final_states=(), unknown_key='x', best_rejected=None)")
    assert unknown == VerseScansion(None, (), ScanStatus.FAIL_UNKNOWN_WORD,
                                    (), "x", None)
    assert unknown != VerseScansion(None, (), ScanStatus.FAIL_UNKNOWN_WORD)
    assert a != (s, (s,), status, (s,), None, None)
    (mark,) = s.accents
    assert mark != (1, True, True, 0) and hash(mark) == hash((1, True, True, 0))
ASPRA = WordAnalysis(("a", "spra"), (-1,), P(1), P(1))
DI = WordAnalysis(("di",), (0,), P(0), P(1))


def prefix(lex, text):
    """The one state that `advance` reaches from the root over text."""
    states = [ScanState()]
    for index, token in enumerate(word_tokens(tokenize(text))):
        states = advance(states, token, lex.lookup(token.key), index,
                         lex.is_stress_eligible(token.key), ScanConfig())
    (state,) = states
    return state


def test_advance_forks_on_noncategorical_meld(seed_lexicon):
    state = prefix(seed_lexicon, "esta selva selvaggia")
    assert (state.text, state.count, state.pending_p_r) == \
        ("|e|sta |sel|va |sel|vag|gia", 7, P(1))
    successors = advance([state], word_token("e"), (E_ANALYSIS,), 3, False,
                         ScanConfig())
    assert [s.count for s in successors] == [7, 8]
    assert [s.likelihood for s in successors] == \
        [pytest.approx(0.9), pytest.approx(0.1)]
    assert successors[0].text.endswith("|vag|gia e")
    assert successors[1].text.endswith("|vag|gia |e")
    assert all(s.pending_p_r == P(0.2) for s in successors)


def test_advance_compounds_branches(seed_lexicon):
    state = prefix(seed_lexicon, "esta selva selvaggia")
    cfg = ScanConfig()
    states = advance([state], word_token("e"), (E_ANALYSIS,), 3, False, cfg)
    states = advance(states, word_token("aspra"), (ASPRA,), 4, True, cfg)
    likelihoods = sorted((round(s.likelihood, 9) for s in states), reverse=True)
    assert likelihoods == [0.72, 0.18, 0.08, 0.02]


def test_advance_deterministic_word_single_successor(seed_lexicon):
    state = prefix(seed_lexicon, "Nel mezzo del cammin")
    assert (state.count, state.pending_p_r) == (6, P(0))
    (successor,) = advance([state], word_token("di"), (DI,), 4, False,
                           ScanConfig())
    assert successor.count == 7
    assert successor.likelihood == 1.0
    assert successor.text == "|Nel |mez|zo |del |cam|min |di"


@pytest.mark.parametrize("cfg", [ScanConfig(), PERMISSIVE],
                         ids=["default", "permissive"])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(verse=verse_st)
def test_final_state_fields_agree_with_text(seed_lexicon, cfg, verse):
    tokens = tokenize(normalize_line(verse))
    words = word_tokens(tokens)
    for state in scan_verse(tokens, seed_lexicon, cfg).final_states:
        # one space-separated chunk per word; a melded word opens without "|"
        chunks = state.text.split(" ")
        assert len(chunks) == len(words)
        assert state.melds == tuple(not c.startswith("|") for c in chunks)
        accents = state.accents
        assert [m.word_index for m in accents] == \
            sorted(m.word_index for m in accents)
        for secondary in (False, True):
            stressed = {m.position for m in accents
                        if m.eligible and (m.primary or secondary)}
            assert state.stresses(secondary) == tuple(
                i in stressed for i in range(1, state.count + 1))
        count = 0
        for index, (word, chunk) in enumerate(zip(words, chunks)):
            count += chunk.count("|")  # syllables through this word
            marks = [m for m in accents if m.word_index == index]
            sylls = tuple(chunk.lstrip("|").lower().split("|"))
            assert any([(m.position, m.primary) for m in marks] ==
                       [(count + o, o == a.accents[0]) for o in a.accents]
                       for a in seed_lexicon.lookup(word.key)
                       if a.syllables == sylls), (state.text, index)
            eligible = seed_lexicon.is_stress_eligible(word.key)
            assert all(m.eligible == eligible for m in marks)
        assert count == state.count


def test_final_states_build_each_shared_prefix_once(seed_lexicon, monkeypatch):
    # every text a node builds is stored in its _text slot, so count the
    # stores: one per node of the trellis, however many readings share it
    slot = ScanState.__dict__["_text"]
    stores = 0

    class CountingSlot:
        def __get__(self, state, owner=None):
            return slot.__get__(state, owner)

        def __set__(self, state, value):
            nonlocal stores
            stores += value is not None
            slot.__set__(state, value)

    # plain words, then capitalised and punctuated ones, which are cut
    # from their letters
    for verse in ("e a e a e a e a e a e a", "E a, e «a» E a; e a e, A e a!"):
        result = scan(verse, seed_lexicon)
        stores = 0
        with monkeypatch.context() as patch:
            patch.setattr(ScanState, "_text", CountingSlot())
            assert len(result.final_states) == 2048
            for state in result.final_states:
                assert state.text.count(" ") == 11
        nodes = set()  # by identity: hashing a state reads its text
        for state in result.final_states:
            node = state
            while node._parent is not None and id(node) not in nodes:
                nodes.add(id(node))
                node = node._parent
        assert stores == len(nodes), verse


def test_likelihood_floor_prunes_only_the_unlikely_states(seed_lexicon):
    # fourteen meld-prone words fork at every junction; the least likely
    # readings fall below the default floor of 1e-9 and are dropped
    verse = " ".join(["e a"] * 7)
    floored = scan(verse, seed_lexicon)
    exhaustive = scan(verse, seed_lexicon, likelihood_floor=0.0)
    assert len(floored.final_states) == 8178
    assert all(s.likelihood >= 1e-9 for s in floored.final_states)
    assert len(exhaustive.final_states) == 8192
    assert sum(s.likelihood >= 1e-9 for s in exhaustive.final_states) == 8178
    assert floored.status == exhaustive.status
    # a reading exactly at the floor stays
    halves = tuple(WordAnalysis(("sel", "va"), (o,), P(0), P(1), 0.5)
                   for o in (-1, 0))
    kept = advance([ScanState()], word_token("selva"), halves, 0, True,
                   ScanConfig(likelihood_floor=0.5))
    assert [s.likelihood for s in kept] == [0.5, 0.5]


def fixed_lines(canto_verses):
    """The verses of Inferno I, fork_storm_lines.txt and
    anomalies_fixture.txt."""
    data = pathlib.Path(__file__).parent / "data"
    anomalies = parse_corpus((data / "anomalies_fixture.txt").read_text("utf-8"))
    return (canto_verses
            + (data / "fork_storm_lines.txt").read_text("utf-8").splitlines()
            + [verse.text for verse in anomalies])


def assert_pruning_changes_no_outcome(line, lex):
    # the incremental prunes drop early what finalize would reject: with
    # no likelihood floor, pruning or not gives the same status, chosen
    # reading and admissible readings, in order
    tokens = tokenize(normalize_line(line))
    outcomes = []
    for pruning in (True, False):
        result = scan_verse(tokens, lex, ScanConfig(likelihood_floor=0.0,
                                                    incremental_pruning=pruning))
        outcomes.append((result.status, result.chosen and result.chosen.text,
                         [(s.text, s.likelihood, s.count) for s in result.admissible]))
    assert outcomes[0] == outcomes[1], line


def test_incremental_pruning_changes_no_outcome_on_fixed_inputs(seed_lexicon,
                                                                canto_verses):
    for line in fixed_lines(canto_verses):
        assert_pruning_changes_no_outcome(line, seed_lexicon)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(words=st.lists(st.sampled_from(VERSE_WORDS), min_size=1, max_size=12))
def test_incremental_pruning_changes_no_outcome(seed_lexicon, words):
    assert_pruning_changes_no_outcome(" ".join(words), seed_lexicon)


# the scanner's work on fixed inputs: (nodes made, final states,
# admissible states, classes, most classes at one word).  A class is the
# (count, pending_p_r, a4, a6, a10, a10 at this word) of a node, counted
# per `advance` call: the rest of the verse's search depends on nothing
# else about a node but its likelihood.  fork_storm_lines.txt holds the
# 200 meld-prone lines of the benchmark's fork-storm generator at seed 1,
# written once, so that no change to the benchmark moves these pins.  A
# change that moves one says which count changed and why.
SCANNER_WORK = {
    "inferno_i": (1242, 200, 141, 1221, 4),
    "e a x6": (4095, 2048, 0, 78, 12),
    "e a x7": (16369, 8178, 0, 103, 13),
    "e a x8": (64839, 32192, 0, 127, 13),
    "fork storm": (227000, 93083, 6829, 18811, 47),
}


@pytest.mark.parametrize("name", SCANNER_WORK)
def test_scanner_work_on_fixed_inputs_is_pinned(monkeypatch, seed_lexicon,
                                                canto_verses, name):
    if name == "inferno_i":
        lines = canto_verses
    elif name == "fork storm":
        lines = (pathlib.Path(__file__).parent / "data" / "fork_storm_lines.txt"
                 ).read_text("utf-8").splitlines()
    else:
        lines = [" ".join(["e a"] * int(name[-1]))]
    nodes = classes = most_classes = 0
    real_advance = scander.advance

    def counting(states, token, analyses, token_index, *rest):
        nonlocal nodes, classes, most_classes
        successors = real_advance(states, token, analyses, token_index, *rest)
        nodes += len(successors)
        # a10 only ever turns on: it came at this word if the parent lacks it
        here = len({(s.count, s.pending_p_r, s.a4, s.a6, s.a10,
                     s.a10 and not s._parent.a10) for s in successors})
        classes += here
        most_classes = max(most_classes, here)
        return successors

    monkeypatch.setattr(scander, "advance", counting)
    final = admissible = 0
    for line in lines:
        result = scan(line, seed_lexicon)
        final += len(result.final_states)
        admissible += len(result.admissible)
    assert (nodes, final, admissible, classes, most_classes) == SCANNER_WORK[name]


# the ranking of every scan on fixed inputs: (text, repr(likelihood),
# count) of each admissible state and then of each final state, in the
# order the scan returns them, for every verse of Inferno I, of
# fork_storm_lines.txt and of anomalies_fixture.txt.  The chosen reading
# is pinned elsewhere; this pins the order of all the others, ties too.
RANKING_SHA256 = "0310776f5eb5823317e8a5ed7ddac149b560e865800c9456c785b001f3acbb74"


def test_ranking_on_fixed_inputs_is_pinned(seed_lexicon, canto_verses):
    digest = hashlib.sha256()
    for line in fixed_lines(canto_verses):
        result = scan(line, seed_lexicon)
        for states in (result.admissible, result.final_states):
            for s in states:
                digest.update(f"{s.text}\t{s.likelihood!r}\t{s.count}\n"
                              .encode("utf-8"))
            digest.update(b"\n")
    assert digest.hexdigest() == RANKING_SHA256


def path_key(state, lex):
    """Per word of the state's chain: the index of its analysis in the
    word's lexicon entry, then 0 if it melded and 1 if not."""
    key = []
    for link in state._chain():
        analyses = lex.entries[link._word[0].key]
        key += (next(i for i, a in enumerate(analyses) if a is link._analysis),
                0 if link._melded else 1)
    return tuple(key)


def rerank(states, eps):
    """By likelihood, highest first; a run within eps of its first state
    by fewer syllables, then by position."""
    rest = sorted(enumerate(states), key=lambda p: -p[1].likelihood)
    ranked = []
    while rest:
        top = rest[0][1].likelihood
        n = next((k for k, (_, s) in enumerate(rest) if top - s.likelihood > eps),
                 len(rest))
        ranked += sorted(rest[:n], key=lambda p: (p[1].count, p[0]))
        rest = rest[n:]
    return [s for _, s in ranked]


def test_path_contract_on_fixed_inputs(seed_lexicon, canto_verses):
    # what final_states and admissible promise, which a search that
    # merges paths must keep: every path once, in construction order (the
    # branch that melds before the one that does not); admissible is the
    # final states that pass the metric rules, ranked; chosen is its head
    eps = ScanConfig().tie_epsilon
    forked = admissible = 0
    for line in fixed_lines(canto_verses):
        result = scan(line, seed_lexicon)
        final = result.final_states
        keys = [path_key(s, seed_lexicon) for s in final]
        assert all(a < b for a, b in zip(keys, keys[1:])), line
        forked += len({k[1::2] for k in keys}) > 1
        if not result.status.is_admissible:
            assert result.chosen is None and result.admissible == (), line
            continue
        admissible += 1
        position = {id(s): k for k, s in enumerate(final)}
        assert all(id(s) in position for s in result.admissible), line
        assert len({id(s) for s in result.admissible}) == len(result.admissible)
        kept = sorted(result.admissible, key=lambda s: position[id(s)])
        passing = [s for s in final
                   if s.a10 and (s.count <= 11 or not s._parent.a10)]
        caesura = [s for s in passing if s.a4 or s.a6]
        assert [id(s) for s in kept] == [id(s) for s in caesura or passing], line
        assert [id(s) for s in result.admissible] == \
            [id(s) for s in rerank(kept, eps)], line
        assert result.admissible[0] is result.chosen, line
    # lines whose paths differ in a meld, and admissible lines, of 347
    assert (forked, admissible) == (236, 300)


def test_advance_stores_every_slot_of_a_node(monkeypatch, seed_lexicon,
                                             canto_verses):
    # a chain node is made without __init__, so advance must store each
    # slot itself: a slot left unset would raise only when first read
    real_advance = scander.advance
    nodes = 0

    def checking(*args):
        nonlocal nodes
        successors = real_advance(*args)
        for s in successors:
            missing = [name for name in ScanState.__slots__
                       if not hasattr(s, name)]
            assert not missing, missing
        nodes += len(successors)
        return successors

    monkeypatch.setattr(scander, "advance", checking)
    for line in fixed_lines(canto_verses):
        scan(line, seed_lexicon)
    assert nodes == 228_300


@pytest.mark.parametrize("cfg", [ScanConfig(), PERMISSIVE],
                         ids=["default", "permissive"])
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(verse=verse_st)
def test_state_reads_do_not_depend_on_reading_order(seed_lexicon, cfg, verse):
    tokens = tokenize(normalize_line(verse))

    def read(state):
        return state.text, state.melds, state.accents

    first = scan_verse(tokens, seed_lexicon, cfg)
    second = scan_verse(tokens, seed_lexicon, cfg)
    chosen_text = second.chosen.text if second.chosen else None
    forward = [read(s) for s in first.final_states]
    backward = [read(s) for s in reversed(second.final_states)][::-1]
    assert forward == backward
    assert chosen_text == (first.chosen.text if first.chosen else None)

    # interior states read before the states that extend them
    states = [ScanState()]
    for index, token in enumerate(word_tokens(tokens)):
        states = advance(states, token, seed_lexicon.lookup(token.key), index,
                         seed_lexicon.is_stress_eligible(token.key), cfg)
        for state in states[index % 2::3]:
            state.text
    assert [read(s) for s in states] == forward


def test_advance_conserves_likelihood_and_grows_counts(seed_lexicon, canto_verses):
    cfg = ScanConfig(likelihood_floor=0.0, incremental_pruning=False)
    for verse in canto_verses:
        words = [t for t in tokenize(normalize_line(verse))
                 if t.kind is TokenKind.WORD]
        states = [ScanState()]
        for index, token in enumerate(words):
            analyses = seed_lexicon.lookup(token.key)
            previous_min = min(s.count for s in states)
            states = advance(states, token, analyses, index,
                             seed_lexicon.is_stress_eligible(token.key), cfg)
            assert sum(s.likelihood for s in states) == pytest.approx(1.0, abs=1e-9)
            # a word adds its syllables, minus exactly one on a meld
            smallest = min(a.n for a in analyses)
            assert all(s.count >= previous_min + smallest - 1 for s in states)
            assert all(s.count > previous_min or smallest == 1 for s in states)


def test_finalize_builds_the_result_its_constructor_builds(
        monkeypatch, seed_lexicon, canto_verses):
    # an admissible verse's result holds its four fields and the
    # constructor's defaults, nothing else: a fast path that built it slot
    # by slot would have to match this.  Both sides hold the same states,
    # and a state's repr reads its whole chain, so a state stands in its
    # repr by its identity
    monkeypatch.setattr(ScanState, "__repr__", lambda s: f"<state {id(s)}>")
    admissible = 0
    for line in fixed_lines(canto_verses):
        result = scan(line, seed_lexicon)
        if not result.status.is_admissible:
            continue
        admissible += 1
        built = VerseScansion(result.chosen, result.admissible, result.status,
                              result.final_states)
        assert result == built and repr(result) == repr(built), line
    assert admissible > 200


def test_finalize_empty_reports_failure():
    out = finalize([], ScanConfig())
    assert out.status is ScanStatus.FAIL_NO_ACCENT10
    assert out.chosen is None


def test_finalize_tie_break_prefers_fewer_syllables():
    def state(count, likelihood=0.25):
        # a one-word reading: a word of `count` syllables, stressed on the
        # fourth and tenth, whose only analysis weighs `likelihood`
        analysis = WordAnalysis(["la"] * count, (10 - count, 4 - count),
                                P(0), P(0), likelihood)
        (node,) = advance([ScanState()], word_token("la" * count),
                          (analysis,), 0, True, ScanConfig())
        assert (node.likelihood, node.count, node.pending_p_r, node.a4,
                node.a6, node.a10) == (likelihood, count, P(0), True, False,
                                       True)
        return node

    result = finalize([state(11), state(10)], ScanConfig())
    assert result.chosen.count == 10
    # likelihoods exactly tie_epsilon apart tie too
    likelier = state(11, likelihood=0.5)
    assert finalize([likelier, state(10)],
                    ScanConfig(tie_epsilon=0.25)).chosen.count == 10
    # equal counts fall back to construction order: the order of the list
    a, b = state(11), state(11)
    assert finalize([a, b], ScanConfig()).chosen is a
    assert finalize([b, a], ScanConfig()).chosen is b


def test_scan_verse_worked_example(seed_lexicon):
    result = scan("esta selva selvaggia e aspra e forte", seed_lexicon)
    assert len(result.final_states) == 8
    assert len(result.admissible) == 3
    assert result.chosen.likelihood == pytest.approx(0.648, abs=1e-9)
    assert result.chosen.text == \
        "|e|sta |sel|va |sel|vag|gia e |a|spra e |for|te"
    assert result.status is ScanStatus.OK
    assert result.admissible[0] == result.chosen
    ranked = [s.likelihood for s in result.admissible]
    assert ranked == sorted(ranked, reverse=True)


def test_scan_verse_line_one(seed_lexicon):
    result = scan("Nel mezzo del cammin di nostra vita", seed_lexicon)
    assert result.chosen.text == "|Nel |mez|zo |del |cam|min |di |no|stra |vi|ta"
    assert result.chosen.count == 11
    assert result.chosen.a6 and result.chosen.a10


def test_scan_verse_meld_across_punctuation(seed_lexicon):
    result = scan("per simil colpa». E più non fé parola.", seed_lexicon)
    assert "|col|pa». E |più" in result.chosen.text


def test_scan_verse_dieresis_forces_hiatus(seed_lexicon):
    result = scan("Cred’ ïo ch’ei credette ch’io credesse",
                  seed_lexicon)
    assert result.status is ScanStatus.OK
    assert result.chosen.count == 11
    assert result.chosen.a6  # credètte on the sixth syllable
    assert "|Cre|d’ ï|o " in result.chosen.text


def test_scan_verse_sdrucciolo_final_word(seed_lexicon):
    result = scan("che noi possiam ne l’altra bolgia scendere,",
                  seed_lexicon)
    assert result.chosen.count == 12
    assert result.status.is_admissible


def test_scan_verse_composed_rhyme_tail(seed_lexicon):
    result = scan("e men d’un mezzo di traverso non ci ha", seed_lexicon)
    assert result.chosen.count == 11
    assert result.chosen.text.endswith("|non |ci ha")


def test_scan_verse_left_synalephe_preferred(seed_lexicon):
    # "avieno e atto": the conjunction melds leftward, not rightward
    result = scan("che membra feminine avieno e atto,", seed_lexicon)
    assert "|vie|no e |at|to" in result.chosen.text


def test_scan_verse_secondary_stress_rescues_caesura(seed_lexicon):
    result = scan("con tre gole caninamente latra", seed_lexicon)
    assert result.status is ScanStatus.OK
    stripped = seed_lexicon.with_override("caninamente", [WordAnalysis(
        ("ca", "ni", "na", "men", "te"), (-1,), PROB_ZERO, PROB_ONE)])
    result = scan("con tre gole caninamente latra", stripped)
    assert result.status is ScanStatus.WARN_NO_CAESURA


def test_scan_verse_unknown_word(seed_lexicon):
    result = scan("nel mezzo del xyzzy di nostra vita", seed_lexicon)
    assert result.status is ScanStatus.FAIL_UNKNOWN_WORD
    assert result.unknown_key == "xyzzy"
    assert result.chosen is None


def test_scan_verse_no_accent_on_tenth(seed_lexicon):
    result = scan("selva oscura", seed_lexicon)
    assert result.status is ScanStatus.FAIL_NO_ACCENT10
    assert result.best_rejected is not None


def test_scan_verse_empty():
    lex = build_lexicon({"a": [WordAnalysis(("a",), (0,), P(0.9), P(0.2))]})
    assert scan_verse([], lex).status is ScanStatus.FAIL_NO_ACCENT10
    # a stream of marks alone has no word either, so no state at all
    marks = tokenize("« , »")
    assert [t.kind for t in marks] == [TokenKind.PUNCT] * 3
    result = scan_verse(marks, lex)
    assert (result.status, result.final_states, result.admissible) == (
        ScanStatus.FAIL_NO_ACCENT10, (), ())


def test_accent_word_index_counts_words_only(seed_lexicon):
    # standalone marks before and between the words are tokens, not words
    marked = tokenize(normalize_line("« Nel mezzo , del cammin di nostra vita »"))
    assert [t.kind for t in marked[:3]] == [TokenKind.PUNCT, TokenKind.WORD,
                                            TokenKind.WORD]
    assert marked[3].kind is TokenKind.PUNCT
    plain = scan("Nel mezzo del cammin di nostra vita", seed_lexicon)
    result = scan_verse(marked, seed_lexicon)
    for state in result.final_states:
        accents = state.accents
        assert {m.word_index for m in accents} == set(range(7))
        assert accents in [s.accents for s in plain.final_states]
    assert result.chosen.accents == plain.chosen.accents


def test_override_changes_syllable_count(seed_lexicon):
    verse = "mentre ch’io vissi, per lo gran disio"
    before = scan(verse, seed_lexicon)
    assert before.chosen.count == 10
    hiatus_only = seed_lexicon.with_override("disio", [WordAnalysis(
        ("di", "si", "o"), (-1,), PROB_ZERO, PROB_ONE)])
    after = scan(verse, hiatus_only)
    assert after.chosen.count == 11
    assert after.chosen.text.endswith("|di|si|o")


def test_rank_breaks_ties_deterministically(seed_lexicon):
    # Inferno IV, 30: two equal-likelihood readings survive; the caesura
    # preference picks the one with the stress on the sixth syllable
    result = scan("d’infanti e di femmine e di viri", seed_lexicon)
    assert result.status is ScanStatus.OK
    assert "|ti |e |di |fem|mi|ne e" in result.chosen.text


def test_scan_is_pure(seed_lexicon):
    verse = "esta selva selvaggia e aspra e forte"
    first = scan(verse, seed_lexicon)
    second = scan(verse, seed_lexicon)
    assert first == second
