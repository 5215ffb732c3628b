"""Structured pass/fail reports shared by the verification checks and the CLI.

A CertifiedReport is a flat list of claim items; a claim either passed, failed
(computation disagreed with the claim), or errored (the computation could not
be carried out).  Reports serialize to plain JSON-compatible dicts with
deterministic key order; the ``paper_ref`` key of the JSON is the check id.

``shared_in_run`` lets the checks of one suite run share sub-results: the
suite opens a memo in ``RUN_MEMO`` and resets it when the run ends, so no
result outlives the run that made it.
"""
from __future__ import annotations

import functools
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable


PASS = "pass"
FAIL = "fail"
ERROR = "error"


@dataclass
class CheckItem:
    claim_id: str
    status: str
    witness: object = None

    def to_json(self) -> dict:
        out = {"claim_id": self.claim_id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CertifiedReport:
    check_id: str
    items: list[CheckItem] = field(default_factory=list)

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


@dataclass
class SuiteEntry:
    check_id: str
    status: str
    witness: object
    elapsed_ms: int

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "paper_ref": self.check_id,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class SuiteReport:
    version: str
    entries: list[SuiteEntry] = field(default_factory=list)

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
