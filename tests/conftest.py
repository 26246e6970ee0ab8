"""Fixtures shared by every test module."""

from __future__ import annotations

import pkgutil
from importlib import import_module

import pytest

import qt2ec


def _one_entry_memos() -> list:
    """Every ``lru_cache(maxsize=1)`` function of the package's modules.

    Such a memo keeps the answer for the last graph it saw, so a test
    that counts scans or calls would otherwise depend on which graph the
    test before it ended with."""
    memos = []
    for info in pkgutil.iter_modules(qt2ec.__path__):
        module = import_module(f"qt2ec.{info.name}")
        for value in vars(module).values():
            cache_info = getattr(value, "cache_info", None)
            if callable(cache_info) and cache_info().maxsize == 1:
                memos.append(value)
    return memos


ONE_ENTRY_MEMOS = _one_entry_memos()


@pytest.fixture(autouse=True)
def _clear_one_entry_memos() -> None:
    for memo in ONE_ENTRY_MEMOS:
        memo.cache_clear()
