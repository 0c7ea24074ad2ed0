"""The package's public export list."""

import toricspec


def test_all_names_resolve():
    missing = [name for name in toricspec.__all__ if not hasattr(toricspec, name)]
    assert missing == []
