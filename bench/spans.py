"""Span tracing from outside the program: wrap each layer's public entry
points, record spans in memory, and derive counts and self times.

A hook names a function or method by module and attribute path. Installing it
replaces the attribute in every ``qkdnet`` module where the original object is
bound, because callers look names up in their own module: ``harness`` imports
``shortest_path`` and ``disjoint_paths`` by name, and ``Q3PLink.seal``/``open``
call the module-level ``authenticate``/``verify``/``otp_*``. A hook whose
target no longer exists is reported as missing instead of failing the run.

One hook sits on a non-public name: ``Engine._dispatch``, which counts events
by kind (``harness.events``). It only counts and records no span.

A span's self time is its duration minus the time of the spans directly inside
it, so the self times of all spans plus the self time of the root span add up
to the root span's duration.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Hook:
    metric: str             # span or counter name the hook reports under
    module: str
    path: str               # attribute path inside the module, e.g. "KeyStore.reserve"
    kind: str = "span"      # "span", "count", "count_true" or "count_kind"
    nbytes_arg: int | None = None   # positional argument whose len() is summed


HOOKS = (
    Hook("model.neighbors", "qkdnet.model", "Topology.neighbors"),
    Hook("links.produce", "qkdnet.links", "LinkRuntime.produce"),
    Hook("q3p.push", "qkdnet.q3p", "Q3PLink.push"),
    Hook("q3p.reserve", "qkdnet.q3p", "KeyStore.reserve"),
    Hook("q3p.reserve_exact", "qkdnet.q3p", "KeyStore.reserve_exact"),
    Hook("q3p.seal", "qkdnet.q3p", "Q3PLink.seal"),
    Hook("q3p.open", "qkdnet.q3p", "Q3PLink.open"),
    Hook("q3p.auth", "qkdnet.q3p", "authenticate", nbytes_arg=0),
    Hook("q3p.auth", "qkdnet.q3p", "verify", nbytes_arg=0),
    Hook("q3p.otp", "qkdnet.q3p", "otp_encrypt", nbytes_arg=1),
    Hook("q3p.otp", "qkdnet.q3p", "otp_decrypt", nbytes_arg=1),
    Hook("routing.shortest_path", "qkdnet.routing", "shortest_path"),
    Hook("routing.disjoint_paths", "qkdnet.routing", "disjoint_paths"),
    Hook("routing.lsa_codec", "qkdnet.routing", "encode_lsa"),
    Hook("routing.lsa_codec", "qkdnet.routing", "decode_lsa"),
    Hook("routing.lsa.originated", "qkdnet.harness", "NodeAgent.originate", kind="count"),
    Hook("routing.flood_accept", "qkdnet.routing", "FloodingState.accept", kind="count_true"),
    Hook("transport.codec", "qkdnet.transport", "encode_segment"),
    Hook("transport.codec", "qkdnet.transport", "decode_segment"),
    Hook("transport.codec", "qkdnet.transport", "encode_ack"),
    Hook("transport.codec", "qkdnet.transport", "decode_ack"),
    Hook("harness.send_message", "qkdnet.harness", "Engine.send_message"),
    Hook("harness.on_tick", "qkdnet.harness", "NodeAgent.on_tick"),
    Hook("harness.report", "qkdnet.harness", "MetricsReport"),
    Hook("harness.events", "qkdnet.harness", "Engine._dispatch", kind="count_kind"),
)

ROOT = "harness"   # the root span covers run() plus writing the output files


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays until written."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[list] = []      # [span index, time of child spans]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.nbytes: Counter = Counter()
        self.true_count: Counter = Counter()
        self.kinds: Counter = Counter()
        self.rejects = 0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self.engine = None                # set once built; read for sim time
        self.quarter_s = (0.0, 0.0)       # sim times bounding first/last quarter
        self.reserve_q = [0.0, 0, 0.0, 0]  # first-quarter s, calls, last-quarter s, calls

    def _id(self, metric: str) -> int:
        if metric not in self._ids:
            self._ids[metric] = len(self.names)
            self.names.append(metric)
        return self._ids[metric]

    # -- spans -------------------------------------------------------------

    def span(self, metric: str, fn: Callable, nbytes_arg: int | None = None,
             on_exit: Callable[[float], None] | None = None,
             rejects: tuple[type[BaseException], ...] = ()) -> Callable:
        name_id = self._id(metric)
        stack, starts, ends = self._stack, self.start, self.end
        names, parents = self.name, self.parent
        calls, self_s, nbytes = self.calls, self.self_s, self.nbytes
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            idx = len(starts)
            starts.append(t0)
            ends.append(t0)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except rejects:
                tracer.rejects += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self_s[metric] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[metric] += 1
                if nbytes_arg is not None and len(args) > nbytes_arg:
                    nbytes[metric] += len(args[nbytes_arg])
                if on_exit is not None:
                    on_exit(dur)

        return wrapper

    def _count(self, hook: Hook, fn: Callable) -> Callable:
        calls, metric = self.calls, hook.metric
        if hook.kind == "count":
            def wrapper(*args, **kwargs):
                calls[metric] += 1
                return fn(*args, **kwargs)
        elif hook.kind == "count_true":
            true_count = self.true_count

            def wrapper(*args, **kwargs):
                calls[metric] += 1
                result = fn(*args, **kwargs)
                if result:
                    true_count[metric] += 1
                return result
        else:
            kinds = self.kinds

            def wrapper(self_, event, *args, **kwargs):
                calls[metric] += 1
                kinds[event.kind.value] += 1
                return fn(self_, event, *args, **kwargs)
        return wrapper

    def _reserve_quarters(self, dur: float) -> None:
        now = self.engine.now if self.engine is not None else 0.0
        first_end, last_start = self.quarter_s
        if now < first_end:
            self.reserve_q[0] += dur
            self.reserve_q[1] += 1
        elif now >= last_start:
            self.reserve_q[2] += dur
            self.reserve_q[3] += 1

    # -- installing hooks ----------------------------------------------------

    def install(self, hooks=HOOKS) -> None:
        q3p = importlib.import_module("qkdnet.q3p")
        open_rejects = tuple(
            getattr(q3p, n) for n in ("TagMismatch", "ReplayDetected") if hasattr(q3p, n)
        )
        for hook in hooks:
            owner, attr, original = _resolve(hook)
            if owner is None:
                self.missing.append(f"{hook.metric}: {hook.module}.{hook.path}")
                continue
            if hook.kind != "span":
                wrapped = self._count(hook, original)
            else:
                on_exit = self._reserve_quarters if hook.metric == "q3p.reserve" else None
                rejects = open_rejects if hook.metric == "q3p.open" else ()
                wrapped = self.span(hook.metric, original, hook.nbytes_arg, on_exit, rejects)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # module-level name: rebind it wherever a qkdnet module holds it
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "qkdnet" and getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def write(self, path) -> None:
        """One ``name,start_s,end_s,parent`` line per span, gzip-compressed;
        ``parent`` is the 0-based index of the enclosing span or -1."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{names[self.name[i]]},{self.start[i]:.9f},"
                          f"{self.end[i]:.9f},{self.parent[i]}\n")


def _resolve(hook: Hook):
    """(owner, attribute, original) for a hook, or (None, None, None)."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None, None, None
    *parents, attr = hook.path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None, None, None
    return owner, attr, original
