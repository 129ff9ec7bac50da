"""Tests for the benchmark itself.

    python -m pytest perfbench/tests
"""

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import corespeed  # noqa: E402
import forkstorm  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


# ------------------------------------------------------------ generators

def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = workloads.make_comedy(7, tmp_path / "a")
    second = workloads.make_comedy(7, tmp_path / "b")
    assert first.corpus.read_bytes() == second.corpus.read_bytes()
    assert first.amendments.read_bytes() == second.amendments.read_bytes()
    assert first.query_word == second.query_word
    assert workloads.make_cli_sample(7) == workloads.make_cli_sample(7)
    assert workloads.make_fork_storm(7) == workloads.make_fork_storm(7)


def test_other_seed_gives_other_inputs(tmp_path):
    assert (workloads.make_comedy(7, tmp_path / "a").amendments.read_bytes()
            != workloads.make_comedy(8, tmp_path / "b").amendments.read_bytes())
    assert workloads.make_cli_sample(7) != workloads.make_cli_sample(8)
    assert workloads.make_fork_storm(7) != workloads.make_fork_storm(8)


def test_generated_inputs_have_the_documented_shape(tmp_path):
    comedy = workloads.make_comedy(3, tmp_path)
    assert comedy.verses == 13600
    assert comedy.corpus.read_text("utf-8").count(": Canto ") == 100
    assert len(set(workloads.make_cli_sample(3))) == workloads.CLI_SCAN_VERSES
    lines = workloads.make_fork_storm(3)
    assert len(set(lines)) == len(lines) == 200
    assert {len(line.split()) for line in lines} == set(workloads.FORK_STORM_WORDS)
    assert len(workloads.fork_storm_keys()) == 77


def test_amendments_match_the_copies_and_change_nothing(tmp_path):
    from endecascan import corpus
    inputs = workloads.make_comedy(5, tmp_path)
    doc = corpus.parse_corpus(inputs.corpus.read_text("utf-8"))
    amendments = corpus.parse_amendments(inputs.amendments.read_text("utf-8"))
    assert len(amendments) == 100
    assert corpus.apply_amendments(doc, amendments) == doc


# ------------------------------------------------------------ checkers

def _syl_text(golden):
    blocks = []
    for header in checks.expected_headers():
        verses = "\n".join(golden)
        blocks.append(f"{header}\n\n{verses}")
    return "\n\n".join(blocks) + "\n"


def test_syl_check_flags_a_corrupted_verse():
    golden = workloads.golden_lines()
    good = checks.Tally()
    checks.check_syl(good, _syl_text(golden), golden, set())
    assert (good.attempted, good.failed) == (13600, 0)
    bad = checks.Tally()
    corrupted = _syl_text(golden).replace(golden[40], golden[40].replace("|", "", 1), 1)
    checks.check_syl(bad, corrupted, golden, set())
    assert bad.failed == 1
    waived = checks.Tally()
    checks.check_syl(waived, corrupted, golden, {41})
    assert waived.failed == 0


def test_corpus_and_stats_checks_flag_wrong_output():
    tally = checks.Tally()
    checks.check_corpus_stdout(tally, 0, "scanned 13600 verses: 13600 ok, "
                               "0 anomalies, 0 failures\n", 13600)
    checks.check_stats(tally, 0, "pattern\tcount\n-+-+---+-+-\t13500\n"
                       "-+-+-+-+-+-\t100\n", 13600)
    assert tally.failed == 0
    checks.check_corpus_stdout(tally, 0, "scanned 13600 verses: 13599 ok, "
                               "1 anomalies, 0 failures\n", 13600)
    checks.check_stats(tally, 0, "pattern\tcount\n-+-+---+-+-\t13550\n"
                       "-+-+-+-+-+-\t50\n", 13600)
    checks.check_stats(tally, 0, "pattern\tcount\n-+-+---+-+-\t13600\n", 13700)
    assert tally.failed == 3


def test_query_reference_agrees_with_the_engine_and_flags_corruption(tmp_path):
    from endecascan.cli import main
    inputs = workloads.make_comedy(2, tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["query", "--word", inputs.query_word,
                     "--in", str(inputs.corpus)]) == 0
    golden = workloads.golden_lines()
    tally = checks.Tally()
    checks.check_query(tally, 0, out.getvalue(), inputs.query_word, golden, set())
    assert tally.failed == 0
    flipped = out.getvalue().replace("synalephe", "dialephe", 1)
    if flipped == out.getvalue():
        flipped = out.getvalue().replace("dialephe", "synalephe", 1)
    checks.check_query(tally, 0, flipped, inputs.query_word, golden, set())
    assert tally.failed == 1


def test_scan_line_check_flags_a_wrong_first_line():
    golden = workloads.golden_lines()
    tally = checks.Tally()
    checks.check_scan_line(tally, 0, golden[4] + "\nlikelihood: 0.648\n", golden[4])
    checks.check_scan_line(tally, 0, golden[5] + "\n", golden[4])
    checks.check_scan_line(tally, 1, golden[4] + "\n", golden[4])
    assert (tally.attempted, tally.failed) == (3, 2)


@pytest.fixture(scope="module")
def storm_block():
    """A fork-storm line, its verbose output, and an admissible oracle
    candidate far less likely than the chosen reading."""
    from endecascan.cli import load_default_lexicon
    from endecascan.scander import scan_verse
    from endecascan.tokenizer import normalize_line, tokenize
    from oracle import enumerate_states
    lex = load_default_lexicon()
    for line in workloads.make_fork_storm(1):
        result = scan_verse(tokenize(normalize_line(line)), lex)
        chosen = result.chosen
        if chosen is None:
            continue
        worse = [c for c in enumerate_states(checks.plain_tokens(line), lex)
                 if c["a10"] and c["count"] <= 11
                 and (c["a4"], c["a6"]) == (chosen.a4, chosen.a6)
                 and c["likelihood"] < chosen.likelihood / 2]
        if worse:
            return line, forkstorm.render_verbose(result), worse[0]
    pytest.fail("no fork-storm line has a worse admissible reading")


def _fork_storm_failures(line, block):
    tally = checks.Tally()
    checks.check_fork_storm(tally, [line], block + "\n\n", 0)
    return tally.failed


def test_fork_storm_check_accepts_the_engine_output(storm_block):
    line, block, _ = storm_block
    assert _fork_storm_failures(line, block) == 0


def test_fork_storm_check_flags_a_wrong_likelihood(storm_block):
    line, block, _ = storm_block
    lines = block.split("\n")
    text, likelihood, count, p_r = lines[-1].rsplit(", ", 3)
    lines[-1] = f"{text}, {float(likelihood) * 1.5!r}, {count}, {p_r}"
    assert _fork_storm_failures(line, "\n".join(lines)) == 1


def test_fork_storm_check_flags_a_missing_state(storm_block):
    line, block, _ = storm_block
    lines = block.split("\n")
    within_budget = next(i for i, state in enumerate(lines)
                         if state.startswith("  (") and int(state.rsplit(", ", 2)[1]) <= 11)
    del lines[within_budget]
    assert _fork_storm_failures(line, "\n".join(lines)) == 1


def test_fork_storm_check_flags_a_worse_chosen_reading(storm_block):
    line, block, worse = storm_block
    flags = " ".join(f for f in ("a4", "a6", "a10") if worse[f])
    lines = block.split("\n")
    lines[0], lines[1] = worse["text"], f"likelihood: {worse['likelihood']!r}"
    lines[2] = f"syllables: {worse['count']}  accents: {flags}  status: ok"
    assert _fork_storm_failures(line, "\n".join(lines)) == 1


def test_fork_storm_check_flags_unreadable_output(storm_block):
    line, block, _ = storm_block
    assert _fork_storm_failures(line, block.split("\n", 2)[2]) == 1
    assert _fork_storm_failures(line, block.replace("final states:", "states:")) == 1


# ------------------------------------------------------------ metrics

def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail_percentile(list(range(1, 101)))[0] == "p90"
    assert run.tail_percentile(list(range(1, 501))) == ("p95", 475)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == ("max", 3.0)


def _speed(samples):
    """A CoreSpeed with samples of relative length 1 at the fast speed,
    one every 10 ms from 0."""
    speed = corespeed.CoreSpeed(Path("unused"))
    speed.load("".join(f"{0.01 * i} {corespeed.REF_S * cpu}\n"
                       for i, cpu in enumerate(samples)))
    return speed


def test_interval_is_scaled_by_the_samples_taken_during_it():
    # the core is fast for 1 s, then half as fast for 1 s
    speed = _speed([1] * 100 + [2] * 100)
    assert speed.scale(0.2, 0.8) == pytest.approx(0.6)
    assert speed.scale(1.2, 1.8) == pytest.approx(0.3)
    # half in each mode
    assert speed.scale(0.7, 1.3) == pytest.approx(0.6 * 0.75, rel=0.05)
    # an interval between two samples takes the samples a window away
    assert speed.scale(0.501, 0.502) == pytest.approx(0.001)
    # one far beyond the last sample takes the nearest one
    assert speed.scale(5.0, 6.0) == pytest.approx(0.5)


def test_sampler_records_until_stopped(tmp_path):
    with corespeed.CoreSpeed(tmp_path / "samples.txt") as speed:
        time.sleep(0.5)
    assert len(speed.times) > 5
    assert speed.times == sorted(speed.times)
    assert all(f > 0 for f in speed.factors)


def test_items_are_scaled_by_the_speed_during_them():
    speed = _speed([1] * 100 + [2] * 100)
    fast = run.Round(False, 2, {"a": (0.1, 0.2), "b": (0.3, 0.6)})
    slow = run.Round(False, 2, {"a": (1.1, 1.3), "b": (1.4, 2.0)})
    assert run.item_latencies([fast, slow], speed) == pytest.approx([0.1, 0.3])
    assert run.item_latencies([fast, slow], None) == pytest.approx([0.15, 0.45])


def test_self_time_subtracts_direct_children():
    spans = [("outer", 0, 100, -1, ""), ("inner", 10, 40, 0, ""),
             ("leaf", 15, 25, 1, ""), ("inner", 50, 60, 0, "")]
    assert [own for _, _, own, _ in tracing.self_times(spans)] == [60, 20, 10, 10]


def test_wrapped_call_records_parent_and_counts(tmp_path):
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, count=str)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    path = tmp_path / "spans.tsv"
    tracer.write(path)
    spans = tracing.read_spans(path)
    assert [(s[0], s[3], s[4]) for s in spans] == [("outer", -1, ""), ("inner", 0, "2")]


def test_spans_file_shared_by_rounds_is_counted_once(tmp_path):
    path = tmp_path / "spans.tsv"
    path.write_text("scander.scan_verse\t0\t1000\t-1\t3,1\n"
                    "scander.scan_verse\t2000\t3000\t-1\t5,1\n", "utf-8")
    speed = _speed([1] * 1000)
    rounds = [run.Round(False, 1, {0: (0.0, 1.0)}),
              run.Round(True, 1, {0: (1.0, 2.5)}, [path]),
              run.Round(False, 1, {0: (3.0, 4.1)}),
              run.Round(True, 1, {0: (5.0, 6.2)}, [path])]
    values, _ = run.per_layer(rounds, speed)
    assert values["scander.final_states"] == 4
    assert values["scander.final_states.max"] == 5
    assert values["scander.admissible_ratio"] == 0.25
    assert values["trace.overhead_s"] == pytest.approx(1.35 - 1.05)
    assert set(values) == PER_LAYER


def _printed_metrics(stdout):
    lines = stdout.splitlines()
    table = {line.split()[0] for line in lines[:-1]
             if line and not line.startswith("#")}
    return table, set(json.loads(lines[-1])["metrics"])


@pytest.mark.parametrize("trace,declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_printed_metric_names_are_declared(trace, declared):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "fork-storm", "--seed", "1", "--seconds", "0",
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    table, metrics = _printed_metrics(proc.stdout)
    assert table == metrics == declared
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_incomplete_tree_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cli-scan", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
