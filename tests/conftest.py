import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes oracles importable

from txaccel.transport import DatasetConfig, generate_grid


@pytest.fixture(scope="session")
def dataset240():
    """The default 240-sequence dataset, generated once per session."""
    return generate_grid(DatasetConfig())


@pytest.fixture(scope="session")
def mini24(dataset240):
    """24 sequences spanning the c and width grid."""
    return dataset240[::10]
