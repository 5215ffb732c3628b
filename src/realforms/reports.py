"""Structured pass/fail reports shared by the verification checks and the CLI.

A CertifiedReport is a flat list of claim items; a claim either passed, failed
(computation disagreed with the claim), or errored (the computation could not
be carried out).  Reports serialize to plain JSON-compatible dicts with
deterministic key order; the ``paper_ref`` key of the JSON is the check id.

``shared_in_run`` lets the checks of one suite run share sub-results: the
suite opens a memo in ``RUN_MEMO`` and resets it when the run ends, so no
result outlives the run that made it.

``Record`` and ``FrozenRecord`` are the slotted bases of every record in the
package; a record's methods are written out, not generated at import.
"""
from __future__ import annotations

import functools
from contextvars import ContextVar
from operator import attrgetter
from typing import Callable


PASS = "pass"
FAIL = "fail"
ERROR = "error"


class Record:
    """A mutable record: its fields are its ``__slots__`` in order, or the
    ``_fields`` it names when a slot is no field, and its constructor takes
    them by position or by name.  Two records of one class are equal when
    their fields are, read by one C-level getter per class; none has a hash."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._values = attrgetter(*cls._fields) if cls._fields else None

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values):]
            if len(values) > len(fields) or named.keys() != set(rest):
                raise TypeError(f"{type(self).__qualname__} takes the fields ({', '.join(fields)})")
            values += tuple(named[field] for field in rest)
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    """A record that hashes like the tuple of its fields and refuses
    assignment.  Its constructor sets each field with ``object.__setattr__``,
    and ``copy`` and ``pickle`` rebuild it through that constructor."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of a frozen record is read-only")

    __delattr__ = __setattr__


class CheckItem(Record):
    __slots__ = ("claim_id", "status", "witness")

    def __init__(self, claim_id: str, status: str, witness: object = None):
        self.claim_id, self.status, self.witness = claim_id, status, witness

    def to_json(self) -> dict:
        out = {"claim_id": self.claim_id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class CertifiedReport(Record):
    __slots__ = ("check_id", "items")

    def __init__(self, check_id: str, items: list[CheckItem] | None = None):
        self.check_id, self.items = check_id, [] if items is None else items

    def add(self, claim_id: str, ok: bool, witness: object = None) -> CheckItem:
        item = CheckItem(claim_id, PASS if ok else FAIL, witness)
        self.items.append(item)
        return item

    def add_error(self, claim_id: str, witness: object = None) -> CheckItem:
        item = CheckItem(claim_id, ERROR, witness)
        self.items.append(item)
        return item

    def extend(self, other: "CertifiedReport", prefix: str = ""):
        for item in other.items:
            claim = f"{prefix}{item.claim_id}" if prefix else item.claim_id
            self.items.append(CheckItem(claim, item.status, item.witness))

    @property
    def passed(self) -> bool:
        return all(item.status == PASS for item in self.items) and bool(self.items)

    @property
    def status(self) -> str:
        if any(item.status == ERROR for item in self.items):
            return ERROR
        return PASS if self.passed else FAIL

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if item.status != PASS]

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "paper_ref": self.check_id,
            "status": self.status,
            "items": [item.to_json() for item in self.items],
        }


# The memo of the suite run in progress; None outside a run.
RUN_MEMO: ContextVar[dict | None] = ContextVar("realforms_run_memo", default=None)


def shared_in_run(key: Callable) -> Callable:
    """Decorate a function whose result the checks of one run may share.

    key(*args, **kwargs) names the result.  Inside a run, calls with equal
    keys compute once; outside a run every call computes afresh.  A shared
    report is handed out as a fresh CertifiedReport over the same items, so a
    caller that extends its copy changes no other caller's.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            memo = RUN_MEMO.get()
            if memo is None:
                return fn(*args, **kwargs)
            name = (fn, key(*args, **kwargs))
            if name not in memo:
                memo[name] = fn(*args, **kwargs)
            result = memo[name]
            if isinstance(result, CertifiedReport):
                return CertifiedReport(result.check_id, list(result.items))
            return result
        return wrapper
    return decorate


class SuiteEntry(Record):
    __slots__ = ("check_id", "status", "witness", "elapsed_ms")

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "paper_ref": self.check_id,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }


class SuiteReport(Record):
    __slots__ = ("version", "entries")

    def __init__(self, version: str, entries: list[SuiteEntry] | None = None):
        self.version, self.entries = version, [] if entries is None else entries

    def sorted_entries(self) -> list[SuiteEntry]:
        return sorted(self.entries, key=lambda e: e.check_id)

    @property
    def exit_code(self) -> int:
        return 0 if all(e.status == PASS for e in self.entries) else 1

    def summary(self) -> dict:
        counts = {PASS: 0, FAIL: 0, ERROR: 0}
        for e in self.entries:
            counts[e.status] = counts.get(e.status, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "tool": "realforms",
            "version": self.version,
            "checks": [e.to_json() for e in self.sorted_entries()],
            "summary": self.summary(),
            "exit_code": self.exit_code,
        }
