import itertools
import pathlib
import random

import pytest

from leavittpath import OMEGA, parse_graph

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES_DIR = ROOT / "fixtures"
FIXTURE_NAMES = tuple(sorted(p.stem for p in FIXTURES_DIR.glob("*.lpa")))


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES_DIR


def fixture_graph(name: str):
    return parse_graph(
        (FIXTURES_DIR / f"{name}.lpa").read_text(encoding="utf-8")
    )


def fixture_path(name: str) -> str:
    return str(FIXTURES_DIR / f"{name}.lpa")


def omega_sweep_codes():
    """All codes for n <= 2 and 3,000 seeded n = 3 codes over {0, 1, 2, ω},
    as read by ``random_graphs._graph_from_code``."""
    mults = (0, 1, 2, OMEGA)
    for n in (1, 2):
        for code in itertools.product(mults, repeat=n * n):
            yield n, code
    rng = random.Random(20191)
    for _ in range(3000):
        yield 3, tuple(rng.choice(mults) for _ in range(9))
