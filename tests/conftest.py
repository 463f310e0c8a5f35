import functools
import sys
import types

import pytest

from wgmono.characters import build_table


@pytest.fixture(scope="session")
def tables():
    """Session-wide character tables, built once per degree: ``tables.get(d)``."""
    return types.SimpleNamespace(get=functools.cache(build_table))


@pytest.fixture
def digit_limit():
    """The interpreter's int-to-str limit lowered to its least, 640 digits,
    and restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(old)
