import functools
import types

import pytest

from wgmono.characters import build_table


@pytest.fixture(scope="session")
def tables():
    """Session-wide character tables, built once per degree: ``tables.get(d)``."""
    return types.SimpleNamespace(get=functools.cache(build_table))
