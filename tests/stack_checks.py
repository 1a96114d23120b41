"""The stack contract of every stacked kernel: row i of a stack is bit for
bit row i's own call, and a row that fails carries the error of that call."""

import pickle
from typing import NamedTuple


class Raised(NamedTuple):
    """The type and message of the exception a call raised; its str is a FailureRecord's."""

    type: type
    message: str

    def __str__(self) -> str:
        return f"{self.type.__name__}: {self.message}"


def outcome(call):
    """call()'s value, or the Raised of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return Raised(type(exc), str(exc))


def assert_rows_are_their_own_calls(stack, own_calls) -> None:
    """Row i of `stack` against own_calls[i](), its own call: the error's
    type and message, which row(i) raises too, or a row(i) that pickles to
    the bytes of the call's result, so every float is bit for bit equal."""
    assert len(stack.errors) == len(own_calls)
    for i, call in enumerate(own_calls):
        own, row = outcome(call), outcome(lambda: stack.row(i))
        if isinstance(own, Raised):
            assert Raised(type(stack.errors[i]), str(stack.errors[i])) == own == row, i
        else:
            assert pickle.dumps(row) == pickle.dumps(own), (i, row, own)


class Rows:
    """A kernel's (array, ..., RowErrors) result as a stack: row(i) is the
    tuple of each array's row i, or raises row i's error."""

    def __init__(self, result):
        *self.arrays, self.errors = result

    def row(self, i: int) -> tuple:
        self.errors.check(i)
        return tuple(a[i] for a in self.arrays)
