import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run.
settings.register_profile(
    "deterministic", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def corpus_dir():
    return Path(resources.files("invforms").joinpath("corpus"))


@pytest.fixture(scope="session")
def data_dir():
    return Path(__file__).parent / "data"


@pytest.fixture
def spanned(monkeypatch):
    """The points at which any `pieces.BlockModule` spans an echelon, in
    the order it hands them out; saturated points are left out."""
    from invforms.pieces import BlockModule

    points = []
    blocks = BlockModule.blocks

    def recorded(self, d):
        got = blocks(self, d)
        points.extend(m for m, _, ech in got if ech is not None)
        return got

    monkeypatch.setattr(BlockModule, "blocks", recorded)
    return points
