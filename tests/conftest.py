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
