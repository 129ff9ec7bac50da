"""Output checks, run outside the timed section.

Every check compares what the program wrote with a reference that does
not come from the engine under test: the golden canto for comedy-batch
and cli-scan, and the brute-force oracle in ``tests/oracle.py`` for
fork-storm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import workloads
from forkstorm import NO_READING

LIKELIHOOD_TOLERANCE = 1e-12
ORACLE_SAMPLE = 20


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(message)


def expected_headers() -> list[str]:
    return [f"{cantica}: Canto {workloads.roman(n)}"
            for cantica, count in workloads.CANTICHE for n in range(1, count + 1)]


def check_syl(tally: Tally, syl_text: str, golden: list[str],
              waivers: set[int]) -> None:
    """One output per verse: each canto block must match the golden canto."""
    blocks: dict[str, list[str]] = {}
    order: list[str] = []
    current = None
    for line in syl_text.splitlines():
        if ": Canto " in line and "|" not in line:
            current = line
            order.append(line)
            blocks[line] = []
        elif line and current is not None:
            blocks[current].append(line)
    headers = expected_headers()
    if order != headers:
        tally.check(False, f"syl.txt canto headers: got {len(order)} blocks")
    for header in headers:
        got = blocks.get(header, [])
        for n, want in enumerate(golden, start=1):
            line = got[n - 1] if n <= len(got) else None
            tally.check(line == want or n in waivers,
                        f"{header},{n}: {line!r} != {want!r}")
        if len(got) > len(golden):
            tally.check(False, f"{header}: {len(got) - len(golden)} extra lines")


def check_corpus_stdout(tally: Tally, code: int, stdout: str, verses: int) -> None:
    want = f"scanned {verses} verses: {verses} ok, 0 anomalies, 0 failures"
    tally.check(code == 0 and stdout.splitlines()[:1] == [want],
                f"corpus exit {code}: {stdout[:100]!r}")


def check_stats(tally: Tally, code: int, stdout: str, verses: int) -> None:
    """The histogram covers every verse, and every canto contributes the
    same patterns, so every count is a multiple of the number of canti."""
    canti = sum(n for _, n in workloads.CANTICHE)
    lines = stdout.splitlines()
    counts = []
    for line in lines[1:]:
        pattern, _, count = line.partition("\t")
        ok = (len(pattern) > 0 and set(pattern) <= {"+", "-"}
              and count.isdigit())
        counts.append(int(count) if ok else -1)
    tally.check(code == 0 and lines[:1] == ["pattern\tcount"]
                and sum(counts) == verses and min(counts, default=-1) > 0
                and all(c % canti == 0 for c in counts),
                f"stats exit {code}: counts {counts[:5]}")


def expected_query(word: str, golden: list[str]) -> list[str]:
    """The query table derived from the synalephes shown in the golden canto."""
    rows = ["cantica\tcanto\tline\tword\tside\toutcome\tneighbor"]
    canto_rows = []
    for line_no, rendered in enumerate(golden, start=1):
        words = workloads.golden_words(rendered)
        for i, (key, _) in enumerate(words):
            if key != word:
                continue
            if i > 0:
                canto_rows.append((line_no, "left", words[i][1], words[i - 1][0]))
            if i + 1 < len(words):
                canto_rows.append((line_no, "right", words[i + 1][1], words[i + 1][0]))
    for cantica, count in workloads.CANTICHE:
        for number in range(1, count + 1):
            for line_no, side, melded, neighbor in canto_rows:
                outcome = "synalephe" if melded else "dialephe"
                rows.append(f"{cantica}\t{number}\t{line_no}\t{word}\t{side}\t"
                            f"{outcome}\t{neighbor}")
    return rows


def check_query(tally: Tally, code: int, stdout: str, word: str,
                golden: list[str], waivers: set[int]) -> None:
    def unwaived(rows):
        return [r for r in rows if not (len(f := r.split("\t")) > 2
                                        and f[2].isdigit() and int(f[2]) in waivers)]

    got = unwaived(stdout.splitlines())
    want = unwaived(expected_query(word, golden))
    tally.check(code == 0 and got == want,
                f"query {word!r} exit {code}: {len(got)} rows, want {len(want)}")


def check_scan_line(tally: Tally, code: int, stdout: str, want: str) -> None:
    first = stdout.splitlines()[:1]
    tally.check(code == 0 and first == [want], f"scan: {first!r} != {want!r}")


# ------------------------------------------------------------- fork-storm

@dataclass(frozen=True)
class Block:
    chosen: tuple[str, float, int, bool, bool, bool] | None
    states: list[tuple[str, float, int]]


def parse_block(block: str) -> Block:
    """Read one verbose block: chosen reading, then every final state."""
    lines = block.split("\n")
    marker = lines.index("final states:")
    chosen = None
    if marker == 3:
        text = lines[0]
        likelihood = float(lines[1].removeprefix("likelihood: "))
        fields = lines[2].split()
        count = int(fields[1])
        flags = fields[fields.index("accents:") + 1:fields.index("status:")]
        chosen = (text, likelihood, count,
                  "a4" in flags, "a6" in flags, "a10" in flags)
    elif lines[:marker] != [NO_READING]:
        raise ValueError(f"unexpected block header: {lines[:marker]!r}")
    states = []
    for line in lines[marker + 1:]:
        if not (line.startswith("  (") and line.endswith(")")):
            raise ValueError(f"bad state line {line!r}")
        text, likelihood, count, _p_r = line[3:-1].rsplit(", ", 3)
        states.append((text, float(likelihood), int(count)))
    return Block(chosen, states)


def plain_tokens(line: str):
    """Tokens of a line of bare lowercase words, built without the tokenizer."""
    from endecascan.tokenizer import Token, TokenKind
    return [Token(TokenKind.WORD, w, i > 0, w, w) for i, w in enumerate(line.split())]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= LIKELIHOOD_TOLERANCE


def block_errors(block: Block, reference: list[dict], cfg) -> str | None:
    """Why the block disagrees with the oracle's candidates, or None.

    The incremental prunes may drop a candidate only if it falls below
    the likelihood floor or exceeds the syllable budget, so every other
    candidate must be present.  The chosen reading must be a candidate
    with an a10 stress that no surely admissible candidate (a10, within
    the budget, above the floor) beats under the a4-or-a6 preference.
    """
    by_key: dict[tuple[str, int], list[float]] = {}
    for c in reference:
        by_key.setdefault((c["text"], c["count"]), []).append(c["likelihood"])
    for text, likelihood, count in block.states:
        if not any(_close(likelihood, x) for x in by_key.get((text, count), [])):
            return f"state not in oracle: {text!r} {likelihood!r} {count}"
    if len(block.states) > len(reference):
        return f"{len(block.states)} states, oracle has {len(reference)}"
    present = {(t, c) for t, _, c in block.states}
    for c in reference:
        if (c["likelihood"] >= cfg.likelihood_floor
                and c["count"] <= cfg.max_total_syllables
                and (c["text"], c["count"]) not in present):
            return f"oracle candidate missing: {c['text']!r}"
    sure = [c for c in reference
            if c["a10"] and c["count"] <= cfg.max_total_syllables
            and c["likelihood"] >= cfg.likelihood_floor]
    if block.chosen is None:
        return f"no reading chosen, oracle admits {sure[0]['text']!r}" if sure else None
    text, likelihood, count, a4, a6, a10 = block.chosen
    match = [c for c in reference if c["text"] == text and c["count"] == count
             and _close(c["likelihood"], likelihood)]
    if not match or not a10 or (match[0]["a4"], match[0]["a6"], match[0]["a10"]) != (a4, a6, a10):
        return f"chosen reading not an a10 oracle candidate: {text!r}"
    if not (a4 or a6):
        sure_caesura = [c for c in sure if c["a4"] or c["a6"]]
        if sure_caesura:
            return f"chosen lacks a4/a6 but oracle has {sure_caesura[0]['text']!r}"
    rivals = [c for c in sure if (c["a4"] or c["a6"]) or not (a4 or a6)]
    better = [c for c in rivals if c["likelihood"] - likelihood > cfg.tie_epsilon]
    if better:
        return f"oracle candidate {better[0]['text']!r} beats the chosen reading"
    return None


def check_fork_storm(tally: Tally, lines: list[str], outputs: str, seed: int) -> None:
    """Each line's verbose output against the oracle; on a seeded sample,
    also the exhaustive engine against the oracle as criterion 3 does."""
    from endecascan.cli import load_default_lexicon
    from endecascan.scander import ScanConfig, scan_verse
    from oracle import enumerate_states

    lex = load_default_lexicon()
    cfg = ScanConfig()
    blocks = outputs.split("\n\n")
    if blocks and blocks[-1] == "":
        blocks.pop()
    if len(blocks) != len(lines):
        tally.check(False, f"{len(blocks)} output blocks for {len(lines)} lines")
    for line, text in zip(lines, blocks):
        reference = enumerate_states(plain_tokens(line), lex)
        try:
            error = block_errors(parse_block(text), reference, cfg)
        except (ValueError, IndexError) as exc:
            error = f"unreadable output: {exc}"
        tally.check(error is None, f"{line!r}: {error}")

    exhaustive = ScanConfig(likelihood_floor=0.0, incremental_pruning=False)
    rng = random.Random(f"oracle-sample:{seed}")
    for line in rng.sample(lines, min(ORACLE_SAMPLE, len(lines))):
        tokens = plain_tokens(line)
        engine = scan_verse(tokens, lex, exhaustive)
        got = sorted((s.text, s.count, s.likelihood, s.a4, s.a6, s.a10)
                     for s in engine.final_states)
        want = sorted((d["text"], d["count"], d["likelihood"], d["a4"], d["a6"],
                       d["a10"]) for d in enumerate_states(tokens, lex))
        same = len(got) == len(want) and all(
            g[:2] == w[:2] and _close(g[2], w[2]) and g[3:] == w[3:]
            for g, w in zip(got, want))
        tally.check(same, f"exhaustive engine differs from oracle on {line!r}")
