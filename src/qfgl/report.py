"""Verification reports: named exact checks with explicit orders."""

from __future__ import annotations

from collections import namedtuple

__all__ = ["Check", "VerificationReport"]


class Check(namedtuple("Check", "name order passed detail", defaults=(None,))):
    """Outcome of one exact identity check.

    ``order`` records the truncation the check was run at (an int, a tuple
    of orders, or None for order-free identities); ``detail`` holds the
    first failing coefficient when the check fails.
    """

    __slots__ = ()

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        where = "" if self.order is None else f" (order {self.order})"
        extra = "" if self.detail is None else f": {self.detail}"
        return f"{status} {self.name}{where}{extra}"


class VerificationReport(namedtuple("VerificationReport", "checks", defaults=((),))):
    """A bundle of checks; never claims an order beyond what was computed."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)

