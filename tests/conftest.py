import pathlib

import pytest

from qga.embedding import TrainConfig, train_transe
from qga.lexicon import build_lexicon
from qga.store import load_triples

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
MINI = FIXTURES / "mini"


@pytest.fixture(scope="session")
def mini_kg():
    return load_triples(MINI / "kg.tsv")


@pytest.fixture(scope="session")
def mini_lexicon(mini_kg):
    return build_lexicon(mini_kg, MINI / "labels.tsv", MINI / "paraphrases.tsv")


@pytest.fixture(scope="session")
def mini_table(mini_kg):
    return train_transe(mini_kg, TrainConfig(dim=32, epochs=200, seed=0))


@pytest.fixture(scope="session")
def toy_kg():
    return load_triples(FIXTURES / "toy_transe.tsv")


@pytest.fixture(scope="session")
def toy_table(toy_kg):
    return train_transe(toy_kg, TrainConfig(dim=32, epochs=200, seed=0))


@pytest.fixture(scope="session")
def mini_queries():
    rows = []
    for line in (MINI / "queries.tsv").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        qid, keywords = line.split("\t")
        rows.append((qid, keywords.split()))
    return rows


def write_junk_store(path):
    """Write the mini fixture plus 100 x its size in junk 3-cycles, as the
    fuzzy benchmark store is: 10 302 triples, about 10 000 one-word
    surfaces."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write((MINI / "kg.tsv").read_text())
        for i in range(3400):
            a, b, c = (f"junkns:zzqx{3 * i + j}" for j in range(3))
            rel = f"junkns:zzrel{i % 7}"
            fh.write(f"{a}\t{rel}\t{b}\n{b}\t{rel}\t{c}\n{c}\t{rel}\t{a}\n")
    return path


def gold_answers(qid):
    path = MINI / "gold" / f"{qid}.txt"
    return {line.strip() for line in path.read_text().splitlines() if line.strip()}
