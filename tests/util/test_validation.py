"""Tests for repro.util.validation."""

from __future__ import annotations

import pytest

from repro.util.validation import (
    ConfigError,
    check_index,
    check_int,
    check_non_negative,
    check_positive,
    check_probability,
)


def test_check_positive():
    check_positive("x", 1)
    check_positive("x", 0.5)
    with pytest.raises(ValueError, match="x must be positive"):
        check_positive("x", 0)


def test_check_non_negative():
    check_non_negative("x", 0)
    with pytest.raises(ValueError):
        check_non_negative("x", -1)


def test_check_probability():
    check_probability("p", 0.0)
    check_probability("p", 1.0)
    with pytest.raises(ValueError):
        check_probability("p", 1.5)
    with pytest.raises(ValueError):
        check_probability("p", -0.1)


def test_check_index():
    check_index("i", 0, 5)
    check_index("i", 4, 5)
    with pytest.raises(IndexError):
        check_index("i", 5, 5)
    with pytest.raises(IndexError):
        check_index("i", -1, 5)


@pytest.mark.parametrize(
    "kwargs, value, message",
    [
        ({}, "3", "n must be an int, got '3'"),
        ({"minimum": 0}, -1, "n must be a non-negative int, got -1"),
        ({"minimum": 1}, 0, "n must be a positive int, got 0"),
        ({"minimum": 2}, 1, "n must be an int >= 2, got 1"),
        ({"minimum": 1, "optional": True}, 1.5, "n must be a positive int or None, got 1.5"),
        ({}, True, "n must be an int, got True"),
        ({"minimum": 0}, False, "n must be a non-negative int, got False"),
    ],
)
def test_check_int_rejects(kwargs, value, message):
    with pytest.raises(ConfigError) as info:
        check_int("n", value, **kwargs)
    assert str(info.value) == message


def test_check_int_accepts():
    check_int("n", -5)
    check_int("n", 2, minimum=2)
    check_int("n", None, minimum=1, optional=True)
