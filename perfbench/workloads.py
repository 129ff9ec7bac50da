"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of the seed and of files committed
in the repository (the Inferno I canto, its golden scansion and the
bundled seed lexicon), so the same seed always yields byte-identical
inputs.  The program under test only ever sees the files written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
SEED_LEX = ROOT / "src" / "endecascan" / "data" / "seed.lex"

APOSTROPHE = "’"

# the shape of the Divine Comedy: 34 + 33 + 33 canti
CANTICHE = (("Inferno", 34), ("Purgatorio", 33), ("Paradiso", 33))

WHY = {
    "comedy-batch": (
        "the paper's own job at its real size: corpus, stats and query over "
        "13,600 verses, each verse repeated 100 times"),
    "cli-scan": (
        "interactive use: one scan process per verse, closed loop, one "
        "client; dominated by start-up, not by scanning"),
    "fork-storm": (
        "the unbounded worst case: long lines of meld-prone words, every "
        "final state rendered as scan --verbose does"),
}

CLI_SCAN_VERSES = 40
FORK_STORM_WORDS = (9, 10, 11, 12, 13)
FORK_STORM_LINES_PER_LENGTH = 40
FORK_STORM_VOWELS = ("a", "e", "o", "i")
FORK_STORM_VOWEL_SHARE = 0.7


def roman(value: int) -> str:
    # the generators import nothing from the package under test
    pairs = [(1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"),
             (90, "XC"), (50, "L"), (40, "XL"), (10, "X"), (9, "IX"),
             (5, "V"), (4, "IV"), (1, "I")]
    out = []
    for n, sym in pairs:
        while value >= n:
            out.append(sym)
            value -= n
    return "".join(out)


def canto_verses() -> list[str]:
    """The 136 verses of Inferno I, in order, as plain text lines."""
    lines = (DATA / "inferno_i.txt").read_text("utf-8").splitlines()
    return [line.strip() for line in lines[1:] if line.strip()]


def golden_lines() -> list[str]:
    return (DATA / "inferno_i_golden.txt").read_text("utf-8").splitlines()


def golden_waivers() -> set[int]:
    text = (DATA / "golden_waivers.txt").read_text("utf-8")
    return {int(line) for line in text.splitlines()
            if line.strip() and not line.startswith("#")}


def chunk_key(chunk: str) -> str:
    """Lexicon key of one space-separated chunk of a rendered verse.

    Bars and the punctuation around the word are dropped; apostrophes
    that belong to the word (elision, aphaeresis) are kept.
    """
    word = chunk.replace("|", "")
    start, end = 0, len(word)
    while start < end and not (word[start].isalpha() or word[start] == APOSTROPHE):
        start += 1
    while end > start and not (word[end - 1].isalpha() or word[end - 1] == APOSTROPHE):
        end -= 1
    return word[start:end].lower()


def golden_words(rendered: str) -> list[tuple[str, bool]]:
    """(key, melded with the previous word) for each word of a rendered verse.

    A word chunk that opens with a bar starts a new syllable (dialephe);
    one that does not shares its first syllable with the previous word
    (synalephe).  Chunks without letters carry only opening punctuation.
    """
    words = []
    for chunk in rendered.split(" "):
        if not any(ch.isalpha() for ch in chunk):
            continue
        words.append((chunk_key(chunk), bool(words) and not chunk.startswith("|")))
    return words


def canto_word_keys() -> set[str]:
    return {key for line in golden_lines() for key, _ in golden_words(line)}


@dataclass(frozen=True)
class ComedyInputs:
    corpus: Path
    amendments: Path
    query_word: str
    verses: int
    distinct_verses: int
    distinct_word_keys: int


def make_comedy(seed: int, out_dir: Path) -> ComedyInputs:
    """A Comedy-shaped corpus of Inferno I copies, identity amendments
    that the copies satisfy, and a query word."""
    rng = random.Random(f"comedy-batch:{seed}")
    verses = canto_verses()
    body = (DATA / "inferno_i.txt").read_text("utf-8").split("\n", 1)[1]
    cantos = []
    amendments = ["# identity amendments: each original occurs in its verse"]
    for cantica, count in CANTICHE:
        for number in range(1, count + 1):
            cantos.append(f"{cantica}: Canto {roman(number)}\n{body}")
            line = rng.randrange(len(verses))
            word = rng.choice(verses[line].split())
            amendments.append(f"{cantica}\t{roman(number)}\t{line + 1}\t"
                              f"{word}\t{word}\tunchanged")
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = out_dir / "comedy.txt"
    corpus.write_text("\n".join(cantos), "utf-8")
    amend = out_dir / "amendments.tsv"
    amend.write_text("\n".join(amendments) + "\n", "utf-8")
    keys = sorted(k for k in canto_word_keys() if APOSTROPHE not in k)
    return ComedyInputs(corpus, amend, rng.choice(keys),
                        len(verses) * sum(n for _, n in CANTICHE),
                        len(set(verses)), len(canto_word_keys()))


def make_cli_sample(seed: int) -> list[int]:
    """Indices into the canto of the verses one cli-scan round scans."""
    rng = random.Random(f"cli-scan:{seed}")
    waived = golden_waivers()
    pool = [i for i in range(len(canto_verses())) if i + 1 not in waived]
    return rng.sample(pool, CLI_SCAN_VERSES)


def _lexicon_sides() -> dict[str, list[tuple[str, str]]]:
    """(p_l, p_r) of every analysis of every key, read straight from the
    lexicon file so the generator does not depend on the parser under test."""
    sides: dict[str, list[tuple[str, str]]] = {}
    for line in SEED_LEX.read_text("utf-8").splitlines():
        if not line.strip() or line.startswith(("#", "@")):
            continue
        key, _weight, p_l, p_r = line.split("\t")[:4]
        sides.setdefault(key, []).append((p_l, p_r))
    return sides


def fork_storm_keys() -> list[str]:
    """Seed-lexicon keys that meld on both sides and carry no apostrophe."""
    def melds(p: str) -> bool:
        return p != "A" and float(p) > 0.0

    return sorted(k for k, sides in _lexicon_sides().items()
                  if APOSTROPHE not in k
                  and all(melds(p_l) and melds(p_r) for p_l, p_r in sides))


def fork_count(words: list[str], sides: dict[str, list[tuple[str, str]]]) -> int:
    """Junctions whose meld is uncertain, so the scanner forks there.

    With every propensity above zero, a junction is certain only when
    both sides meld with probability one.
    """
    return sum(1 for left, right in zip(words, words[1:])
               if any(float(p_r) * float(p_l) < 1.0
                      for _, p_r in sides[left] for p_l, _ in sides[right]))


def stratum(words: list[str], sides: dict[str, list[tuple[str, str]]]
            ) -> tuple[int, int, int]:
    """(words, forks, words with two analyses) of a line: scanning cost
    doubles with each fork and with each word the lexicon reads two ways."""
    return (len(words), fork_count(words, sides),
            sum(1 for w in words if len(sides[w]) > 1))


def _draw_words(rng: random.Random, n: int, others: list[str]) -> list[str]:
    vowels = round(FORK_STORM_VOWEL_SHARE * n)
    words = ([rng.choice(FORK_STORM_VOWELS) for _ in range(vowels)]
             + [rng.choice(others) for _ in range(n - vowels)])
    rng.shuffle(words)
    return words


def fork_storm_quota() -> dict[tuple[int, int, int], int]:
    """Lines per stratum, the same for every seed.

    Fixing how many lines fall in each stratum keeps the work of a
    round, and the size of its worst line, steady across seeds.  The
    shares come from a fixed pilot sample, rounded by largest remainder.
    """
    rng = random.Random("fork-storm-quota")
    sides = _lexicon_sides()
    others = [k for k in fork_storm_keys() if k not in FORK_STORM_VOWELS]
    pilot = 20 * FORK_STORM_LINES_PER_LENGTH
    quota = {}
    for n in FORK_STORM_WORDS:
        counts: dict[tuple[int, int, int], int] = {}
        for _ in range(pilot):
            k = stratum(_draw_words(rng, n, others), sides)
            counts[k] = counts.get(k, 0) + 1
        shares = {k: c * FORK_STORM_LINES_PER_LENGTH / pilot for k, c in counts.items()}
        floor = {k: int(v) for k, v in shares.items()}
        spare = FORK_STORM_LINES_PER_LENGTH - sum(floor.values())
        for k in sorted(shares, key=lambda k: (floor[k] - shares[k], k))[:spare]:
            floor[k] += 1
        quota.update({k: v for k, v in floor.items() if v})
    return quota


def make_fork_storm(seed: int) -> list[str]:
    """Distinct lines of 9 to 13 words, filling fork_storm_quota.

    About 70% of each line's words are the stress-ineligible vowels, so
    the a10 prune rarely fires and the state count grows with length.
    """
    rng = random.Random(f"fork-storm:{seed}")
    sides = _lexicon_sides()
    others = [k for k in fork_storm_keys() if k not in FORK_STORM_VOWELS]
    left = fork_storm_quota()
    seen: set[str] = set()
    lines = []
    for n in FORK_STORM_WORDS:
        wanted = sum(v for k, v in left.items() if k[0] == n)
        while wanted:
            words = _draw_words(rng, n, others)
            k = stratum(words, sides)
            line = " ".join(words)
            if left.get(k, 0) == 0 or line in seen:
                continue
            left[k] -= 1
            wanted -= 1
            seen.add(line)
            lines.append(line)
    rng.shuffle(lines)
    return lines
