"""Outcome types shared by the relation checkers.

A check over an infinite set can rarely be settled outright: most results
are certified only on the finite window that was actually examined.  The
verdict type keeps that distinction explicit so callers can never mistake
windowed evidence for a full certificate.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, NamedTuple


class Status(str, Enum):
    HOLDS = "holds"                        # settled by a finite certificate
    HOLDS_ON_WINDOW = "holds_on_window"    # verified on the stated range only
    FAILS = "fails"                        # counterexample in hand
    HYPOTHESIS_FAILED = "hypothesis_failed"  # premise of the claim not met

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_STRENGTH = {
    Status.FAILS: 0,
    Status.HYPOTHESIS_FAILED: 1,
    Status.HOLDS_ON_WINDOW: 2,
    Status.HOLDS: 3,
}


def weakest(*statuses: Status) -> Status:
    """Combine component statuses; the least certain one wins."""
    return min(statuses, key=_STRENGTH.__getitem__)


class RelationVerdict(NamedTuple):
    """Outcome of one relation check.

    ``counterexample`` is always independently recheckable; ``note`` states
    the argument behind a ``HOLDS`` certificate or names the window.
    """

    status: Status
    note: str = ""
    counterexample: int | tuple[int, ...] | None = None
    certified_range: tuple[int, int] | None = None
    witnesses: tuple[Any, ...] = ()
    failed_hypothesis: int | None = None

    @property
    def ok(self) -> bool:
        """``holds`` or ``holds_on_window``: the claim survived the check."""
        return self.status in (Status.HOLDS, Status.HOLDS_ON_WINDOW)

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status.value,
            "note": self.note,
            "counterexample": jsonable(self.counterexample),
            "certified_range": jsonable(self.certified_range),
            "witnesses": jsonable(self.witnesses),
            "failed_hypothesis": self.failed_hypothesis,
        }


def jsonable(value: Any) -> Any:
    """``value`` with tuples and lists turned into lists, at every depth, as
    a JSON report writes them."""
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    return value


def holds(note: str, witnesses: tuple = ()) -> RelationVerdict:
    return RelationVerdict(Status.HOLDS, note=note, witnesses=witnesses)


def holds_on_window(
    certified_range: tuple[int, int] | None, note: str, witnesses: tuple = ()
) -> RelationVerdict:
    return RelationVerdict(
        Status.HOLDS_ON_WINDOW,
        note=note,
        certified_range=certified_range,
        witnesses=witnesses,
    )


def fails(
    counterexample: int | tuple[int, ...],
    note: str,
    certified_range: tuple[int, int] | None = None,
) -> RelationVerdict:
    return RelationVerdict(
        Status.FAILS,
        note=note,
        counterexample=counterexample,
        certified_range=certified_range,
    )


def hypothesis_failed(index: int, note: str) -> RelationVerdict:
    return RelationVerdict(Status.HYPOTHESIS_FAILED, note=note, failed_hypothesis=index)
