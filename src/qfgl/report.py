"""Verification reports: named exact checks with explicit orders.

``compare`` builds every check from the values its routes computed:
Scalars, series, BiSeries, or sequences of these (the t-rows of a Witt
element, the entries of a Moebius matrix).  It runs ``==`` first and
locates the first difference only when the routes differ.  A declared
discrepancy (``differ=True``), a printed formula that the proven one
contradicts, passes when its routes differ, and its detail still records
where.  A detail is printed only for a failing check.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import zip_longest

from .series import Series, BiSeries

__all__ = ["Check", "VerificationReport", "compare"]


class Check(namedtuple("Check", "name order passed detail", defaults=(None,))):
    """Outcome of one exact identity check.

    ``order`` records the truncation the check was run at (an int, a tuple
    of orders, or None for order-free identities); ``detail`` says where
    the routes first differ or, for a failing declared discrepancy, how far
    they agree.
    """

    __slots__ = ()

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        where = "" if self.order is None else f" (order {self.order})"
        extra = "" if self.passed or self.detail is None else f": {self.detail}"
        return f"{status} {self.name}{where}{extra}"


class VerificationReport(namedtuple("VerificationReport", "checks", defaults=((),))):
    """A bundle of checks; never claims an order beyond what was computed."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def compare(name: str, order, *routes, differ: bool = False) -> Check:
    """The check that ``routes`` agree or, with ``differ``, that they do not.

    The first route is compared with each other one in turn, so it must be
    a value; another may be a lazy iterable of t-rows, read no further than
    its first differing row.  The detail locates the first difference: by
    degree in a series, by (t, degree) in rows, by total degree and then
    exponents in a BiSeries, by entry in a Moebius matrix, and by both
    canonical strings for a Scalar.  With three routes or more it names the
    two that differ.
    """
    first, *others = routes
    for i, other in enumerate(others, start=2):
        where = _difference(first, other)
        if where is not None:
            loc, text = where
            detail = f"first difference at {loc}: {text}" if loc else text
            return Check(name, order, differ,
                         f"routes 1 and {i}: {detail}" if others[1:] else detail)
    if not differ:
        return Check(name, order, True)
    reach = _reach(first)
    return Check(name, order, False, f"the routes agree through {reach}" if reach
                 else f"both routes equal {first}")


def _label(seq, i: int) -> str:
    fields = getattr(seq, "_fields", None)
    return f"entry {fields[i]}" if fields else f"t^{i}"


def _difference(x, y):
    """(location, text) of the first difference of x and y, None when they
    are equal; the location is empty for a Scalar."""
    if isinstance(x, (Series, BiSeries)) or not isinstance(x, Iterable):
        if x == y:
            return None
        if not isinstance(x, (Series, BiSeries)):
            return "", f"{x} != {y}"
        if _reach(x) != _reach(y):
            return "", f"orders differ: {_reach(x)} != {_reach(y)}"
        if isinstance(x, Series):
            j = next(j for j, (a, b) in enumerate(zip(x.coeffs, y.coeffs)) if a != b)
            return f"{x._VAR}^{j}", f"{x.coeffs[j]} != {y.coeffs[j]}"
        k = min((k for k in x.terms.keys() | y.terms.keys()
                 if x.terms.get(k) != y.terms.get(k)), key=lambda k: (sum(k), k))
        monomial = "".join(v if e == 1 else f"{v}^{e}" for v, e in zip("XYZ", k) if e)
        return monomial or "1", f"{x.coeff(*k)} != {y.coeff(*k)}"
    for i, (a, b) in enumerate(zip_longest(x, y)):
        if a is None or b is None:
            return _label(x, i), "present in one route only"
        where = _difference(a, b)
        if where is not None:
            return f"{_label(x, i)} {where[0]}".rstrip(), where[1]
    return None


def _reach(x) -> str:
    """The last coefficient, top total degree, or last row and its last
    coefficient that agreeing routes were compared through; empty for a
    Scalar or a Moebius matrix."""
    if isinstance(x, Series):
        return f"{x._VAR}^{x.order}"
    if isinstance(x, BiSeries):
        return f"total degree {x.order}"
    if not isinstance(x, Iterable) or hasattr(x, "_fields") or not x:
        return ""
    return f"{_label(x, len(x) - 1)} {_reach(x[-1])}".rstrip()
