import pathlib

import pytest

from endecascan.corpus import parse_corpus
from endecascan.lexicon import parse_lexicon

DATA = pathlib.Path(__file__).parent / "data"
SEED = pathlib.Path(__file__).parents[1] / "src" / "endecascan" / "data" / "seed.lex"


@pytest.fixture(scope="session")
def seed_lexicon():
    return parse_lexicon(SEED.read_text("utf-8"))


@pytest.fixture(scope="session")
def canto_document():
    return parse_corpus((DATA / "inferno_i.txt").read_text("utf-8"))


@pytest.fixture(scope="session")
def canto_golden():
    return (DATA / "inferno_i_golden.txt").read_text("utf-8").splitlines()


@pytest.fixture(scope="session")
def canto_verses(canto_document):
    return [verse.text for verse in canto_document]


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    seen = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in name:
                key = name.split("::test_criterion_")[1].split("[")[0]
                outcome = "PASS" if status == "passed" else "FAIL"
                if seen.get(key) != "FAIL":
                    seen[key] = outcome
    if seen:
        terminalreporter.write_sep("-", "acceptance criteria")
        for key in sorted(seen, key=lambda k: (len(k.split("_")[0]), k)):
            terminalreporter.write_line(f"criterion {key}: {seen[key]}")
