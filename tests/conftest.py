import pathlib

import pytest

from leavittpath import parse_graph

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
