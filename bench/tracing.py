"""In-memory spans around the benchmark's own calls into the library.

A span is [name, start, end, job, parent, ok]: ``name`` is
``<layer>.<function>``, times are ``time.perf_counter`` seconds, ``job`` is
the job id and ``parent`` the index of the enclosing span (None for a job's
root).  Spans stay in memory and are written once, when the run ends.
Self time equals span time: the library itself records nothing yet.
"""

import gzip
import json
from contextlib import contextmanager
from time import perf_counter

# A cap on stored spans keeps the verify workload, which makes one call per
# tensor pair, within a few tens of megabytes; totals still count every call.
MAX_SPANS = 400_000


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.totals = {}  # layer -> [calls, busy seconds, errors]
        self.job = None
        self.parent = None
        self.job_spans = {}  # name -> index of its latest span in the current job

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self.job, self.parent, True]
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
            self.job_spans[name] = len(self.spans) - 1
        else:
            self.dropped += 1
        start = perf_counter()
        try:
            return fn(*args)
        except Exception:
            span[5] = False
            raise
        finally:
            span[1], span[2] = start, perf_counter()
            total = self.totals.setdefault(name.partition(".")[0], [0, 0.0, 0])
            total[0] += 1
            total[1] += span[2] - start
            total[2] += not span[5]

    @contextmanager
    def job_span(self, job_id, name):
        """Open the root span of a job; calls made inside become its children."""
        self.job, self.job_spans = job_id, {}
        span = [name, perf_counter(), 0.0, job_id, None, True]
        self.spans.append(span)
        self.parent = len(self.spans) - 1
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.job = self.parent = None

    @contextmanager
    def within(self, name):
        """Make calls inside children of the job's latest `name` span (a replay of its parts)."""
        outer = self.parent
        self.parent = self.job_spans.get(name, outer)
        try:
            yield
        finally:
            self.parent = outer

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, job, parent, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "job": job, "parent": parent, "ok": ok}) + "\n")
