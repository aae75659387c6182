"""Shared fixtures: the default paraffin configuration and helpers for
building modified copies by textual substitution.  Substitution edits the
config text itself; `config.override`, which the sweep verb uses, rebuilds
a parsed config instead.  `thomas_paths` lists the sets of pieces a test
runs on each of.  The repository root goes on the import path, so
that the acceptance suite can read the benchmark's workload inputs and
correctness gate from `perfbench`.

On a failing property hypothesis imports its patch writer, which imports
libcst, whose `mypy_extensions.TypedDict` raises a DeprecationWarning;
under `-W error` that is an INTERNALERROR that ends the session before the
later tests run.  The writer is imported here once with that warning
ignored, so a failure is reported and the session goes on."""

import sys
import warnings
from pathlib import Path

import pytest

from stefanetc import config, numerics

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.append(ROOT)

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", category=DeprecationWarning,
                            message="mypy_extensions.TypedDict")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def thomas_paths():
    """The sets of pieces `numerics._kernel` may hold: the compiled kernel,
    when this process loaded it, and `numerics.REFERENCE`, the Python
    loops, the numpy step and repr."""
    if numerics._kernel is numerics.REFERENCE:
        return [numerics.REFERENCE]
    return [numerics._kernel, numerics.REFERENCE]


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
