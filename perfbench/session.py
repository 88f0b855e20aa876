"""One closed-loop client: runs steps one after another, verifies each
output, and counts operations, failures and work.

A step is one call of ``rauzy.cli.main`` on documents in the work
directory, or one library call for the parts the CLI does not expose.
Any exception escaping the step (``RecursionError`` included) or an
output that fails its check counts as a failed operation; so does any
exception the check itself raises, as on a report of the wrong shape.
The pipeline stops there and the benchmark goes on with the next one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from collections import Counter

import verify
from rauzy import cli


class StepFailed(Exception):
    """Ends the current pipeline after a failed step."""


class Session:
    """`probe`, when given, times the reference work; it runs between
    steps, and each step's time is also added to `refs` divided by the mean
    of the probes just before and just after it."""

    def __init__(self, probe=None):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []
        self.reports = hashlib.sha256()
        self.work: Counter = Counter()
        self.seconds = 0.0                  # time spent in steps
        self.refs = 0.0                     # the same, in reference units
        self.probes: list[float] = []
        self._probe = probe

    @contextlib.contextmanager
    def _timed(self):
        if self._probe and not self.probes:
            self.probes.append(self._probe())
        started = time.perf_counter()
        try:
            yield
        finally:
            spent = time.perf_counter() - started
            self.seconds += spent
            if self._probe:
                self.probes.append(self._probe())
                self.refs += spent / ((self.probes[-2] + self.probes[-1]) / 2)

    def count(self, key: str, n: int = 1) -> None:
        self.work[key] += n

    def cli(self, argv: list, codes: set, check=None) -> dict:
        """Run one CLI step; `codes` are the exit codes the input allows and
        `check(report, code)` verifies the parsed report."""
        with self._timed():
            return self._cli(argv, codes, check)

    def _cli(self, argv, codes, check):
        self.attempted += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            self._fail(argv[0], f"{type(exc).__name__} escaped main")
        text = out.getvalue()
        self.reports.update(text.encode())
        self.count("cli.steps")
        self.count("cli.report_bytes", len(text.encode()))
        try:
            report = json.loads(text)
            verify.need(code in codes, f"unexpected exit code {code}")
            if check is not None:
                check(report, code)
        except Exception as exc:
            self.wrong += 1
            self._fail(argv[0], f"{type(exc).__name__}: {exc}")
        return report

    def call(self, label: str, fn, check):
        """Run one library step and verify its result with `check`."""
        with self._timed():
            return self._call(label, fn, check)

    def _call(self, label, fn, check):
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:
            self._fail(label, f"{type(exc).__name__} raised")
        try:
            check(result)
        except Exception as exc:
            self.wrong += 1
            self._fail(label, f"{type(exc).__name__}: {exc}")
        return result

    def _fail(self, step: str, why: str):
        self.failed += 1
        self.failures.append(f"{step}: {why}")
        raise StepFailed(why)
