"""Shared fixtures: the default paraffin configuration and helpers for
building modified copies by textual substitution.  Substitution edits the
config text itself; `config.override`, which the sweep verb uses, rebuilds
a parsed config instead.  The repository root goes on the import path, so
that the acceptance suite can read the benchmark's workload inputs and
correctness gate from `perfbench`."""

import sys
from pathlib import Path

import pytest

from stefanetc import config

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.append(ROOT)


@pytest.fixture(scope="session")
def default_cfg():
    return config.default_config()


@pytest.fixture(scope="session")
def default_text():
    return config.default_config_text()


def variant_text(text: str, replacements) -> str:
    """Apply exact textual substitutions, failing loudly on a stale pattern."""
    for old, new in replacements:
        assert old in text, f"pattern {old!r} not found in config text"
        text = text.replace(old, new)
    return text


@pytest.fixture(scope="session")
def make_variant(default_text):
    def build(*replacements):
        return config.parse_config_text(variant_text(default_text, replacements))
    return build
