"""Exception taxonomy shared across the package, its one integer reader, its
one real-number reader and its one JSON file reader.

All exceptions derive from ValueError so callers that only want "bad input"
semantics can catch one base class.
"""

import json
import operator
import sys

import numpy as np


class InvalidInputError(ValueError):
    """Malformed or out-of-domain arguments (shapes, ranges, empty lists)."""


class ModelInvalidError(ValueError):
    """A covariance model violates positive definiteness."""


class BudgetExceededError(ValueError):
    """An eigenvalue budget constraint |lambda| <= c is violated."""


class StructureMismatchError(ValueError):
    """A dense matrix does not conform to the declared cluster structure."""


class FactorizationError(ValueError):
    """A dense matrix expected to be SPD failed its factorization."""


class DegenerateDataError(ValueError):
    """Data admits no well-defined statistic (e.g. zero variance)."""


def require_int(value, name: str) -> int:
    """value as an int, or InvalidInputError naming it.

    Anything operator.index accepts (Python and numpy integers) passes except
    bool: JSON's true/false must not stand in for 1/0.  Floats and strings
    are refused, not converted.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def require_float(value, name: str) -> float:
    """value as a finite float, or InvalidInputError naming it.

    Python and numpy integers and floats pass except bool, as in
    require_int.  NaN and the infinities are refused (JSON's NaN and
    Infinity tokens among them), and so are integers beyond the float range
    (the comparison with the largest float is exact and is False for NaN).
    """
    if isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)  # a finite value beyond the float range is inf
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def unique_keys(pairs) -> dict:
    """A json object_pairs_hook: the object as a dict, or InvalidInputError
    naming a key that appears twice in it (json.load would keep the last
    value without a word)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidInputError(f"repeated JSON key {key!r}")
        obj[key] = value
    return obj


def load_json(path):
    """The JSON document in the UTF-8 file at path.  A key repeated in one
    object (unique_keys) and nesting too deep for the parser raise
    InvalidInputError; a missing file raises OSError and malformed JSON
    json.JSONDecodeError, a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except RecursionError:
            raise InvalidInputError(f"{path}: JSON nested too deeply") from None
