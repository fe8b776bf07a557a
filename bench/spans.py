"""Outside-in span recorder for the qlidar modules.

``SpanRecorder.install`` replaces every public function of the traced
modules with a wrapper, in every module namespace that holds a binding to
it (so ``from .states import make_state`` inside ``cli`` is traced too).
Each call becomes one span ``(name, start_ns, end_ns, parent, tag)`` kept in
memory; ``uninstall`` restores the original bindings.  Nothing under
``src/`` is modified: private helpers are not wrapped, so their time counts
as self time of the nearest public caller.

``rollup`` turns the spans of one pass into per-layer figures.  Every span
is attributed to a group: its explicit group from ``GROUPS`` (or a
tag-dependent one for ``fock_oracle.simulate``), else the group of its
parent when the parent lives in the same module, else its own function
name.  A group's self time is the summed self time of its spans; its call
count is the number of spans entering the group from outside it.
"""

from __future__ import annotations

import functools
import inspect
import time
import types

TRACED_MODULES = (
    "states",
    "interferometer",
    "detection",
    "metrology",
    "wigner",
    "fock_oracle",
    "closedform",
    "cli",
)

SCALAR = "detection.scalar"
CURVE = "detection.curve"

GROUPS = {
    "detection.expectation": SCALAR,
    "detection.parity_expectation": SCALAR,
    "detection.z_expectation": SCALAR,
    "detection.expectation_derivative": SCALAR,
    "detection.expectation_curve": CURVE,
    "detection.expectation_derivative_curve": CURVE,
    "fock_oracle.encode": "fock_oracle.encode",
}


# Per-call tags read from the bound arguments: phase points of a curve, grid
# points of a Wigner grid, and whether an oracle call runs the loss branches.
TAGGERS = {
    "detection.expectation_curve": lambda a: len(a["phis"]),
    "detection.expectation_derivative_curve": lambda a: len(a["phis"]),
    "wigner.wigner_grid": lambda a: a["resolution"] ** 2,
    "fock_oracle.simulate": lambda a: "lossy" if a["config"].loss_r > 0.0 else "lossless",
}


class SpanRecorder:
    """Collects spans from wrapped qlidar functions while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        tagger = TAGGERS.get(name)
        signature = inspect.signature(fn) if tagger else None

        def tag_of(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return tagger(bound.arguments)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tag_of(args, kwargs) if tagger else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, tag)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        prefix = self.package.__name__ + "."
        modules = [self.package] + [getattr(self.package, m) for m in TRACED_MODULES]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith(prefix):
                    continue
                name = value.__module__[len(prefix):] + "." + value.__name__
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[name])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def take(self) -> list:
        """Spans recorded since the last take; the recorder starts afresh."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _group(span, parent_group, parent_name) -> str:
    name, _, _, _, tag = span
    if name == "fock_oracle.simulate":
        return f"fock_oracle.simulate_{tag}"
    if name in GROUPS:
        return GROUPS[name]
    if _module(name) == "closedform":
        return "closedform"
    if parent_name is not None and _module(parent_name) == _module(name):
        return parent_group
    return name


def rollup(spans: list, windows_ns: float) -> dict:
    """Per-group calls, self time and descendant counts for one pass of spans.

    ``windows_ns`` is the summed duration of the job windows the spans were
    recorded in; time inside those windows but inside no span is returned
    as ``uncovered_ns``.
    """
    n = len(spans)
    groups = [""] * n
    child_ns = [0] * n
    covered_ns = 0
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    tags: dict[str, int] = {}
    # scalar evaluations below each fwhm / peak_locations entry
    evals: dict[str, int] = {}
    owner = [""] * n
    # Spans are appended at call entry, so a parent always precedes its children.
    for i, span in enumerate(spans):
        name, start, end, parent, tag = span
        if parent >= 0:
            pname = spans[parent][0]
            group = _group(span, groups[parent], pname)
            child_ns[parent] += end - start
            owner[i] = owner[parent]
            entered = group != groups[parent]
        else:
            group = _group(span, None, None)
            covered_ns += end - start
            entered = True
        groups[i] = group
        if entered:
            calls[group] = calls.get(group, 0) + 1
            if group == SCALAR and owner[i]:
                evals[owner[i]] = evals.get(owner[i], 0) + 1
        if name in ("metrology.fwhm", "metrology.peak_locations"):
            owner[i] = name
        if isinstance(tag, int):
            tags[name] = tags.get(name, 0) + tag
    for i, span in enumerate(spans):
        _, start, end, _, _ = span
        self_ns[groups[i]] = self_ns.get(groups[i], 0) + (end - start) - child_ns[i]
    return {
        "calls": calls,
        "self_ns": self_ns,
        "tags": tags,
        "evals": evals,
        "uncovered_ns": windows_ns - covered_ns,
    }
