"""Per-layer tracing by wrapping the program's public functions.

The modules of ``skewpoisson`` bind their imports at import time (``skew``
holds its own reference to ``poly.substitute_linear``), so each wrapper is
installed under every module name that holds the original.  A timed wrapper
opens a span; a span's self time is its duration minus its child spans.
Functions that run millions of times get a counter only, because a span
would cost more than their work and distort the times around them.  A
recursive function gets one span for its outermost call.  The patches can
be installed and removed between rounds, so traced and untraced rounds can
alternate; the totals accumulate over the traced ones.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("poly", "linalg", "parse", "groups", "skew", "invariants",
           "obstruction", "config", "report", "cli")
METHODS = {
    "groups": ("FiniteMatrixGroup", "__init__"),
    "linalg": ("RowSpace", "add"),
    "config": ("ScenarioConfig", "build_group"),
    "report": ("Report", "to_machine"),
}
COUNT_ONLY = {"linalg.mat_mul", "linalg.mat_add", "linalg.mat_scale", "linalg.transpose",
              "linalg.identity_matrix", "linalg.parse_scalar", "poly.grlex_key"}


class Stat:
    __slots__ = ("calls", "incl", "self", "depth", "general", "images")

    def __init__(self):
        self.calls = self.depth = self.general = self.images = 0
        self.incl = self.self = 0.0


def _general_substitution(args, result):
    """``substitute_linear`` leaves its monomial fast path when a row of the
    matrix has more than one nonzero entry (and the polynomial is nonzero)."""
    poly, mat = args[0], args[1]
    return int(not poly.is_zero and any(sum(1 for c in row if c) > 1 for row in mat))


OBSERVERS = {
    "poly.substitute_linear": ("general", _general_substitution),
    "obstruction.sigma_image_basis": ("images", lambda args, result: len(result)),
}


class Tracer:
    def __init__(self):
        self.stats = {}
        self._open = []  # child time accumulated by each open span

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        observer = OBSERVERS.get(name)
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        open_spans = self._open
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            stat.calls += 1
            if stat.depth:
                return fn(*args, **kwargs)
            stat.depth = 1
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                open_spans.pop()
                stat.depth = 0
                stat.incl += took
                stat.self += took - children[0]
                if open_spans:
                    open_spans[-1][0] += took
            if observer is not None:
                field, measure = observer
                setattr(stat, field, getattr(stat, field) + measure(args, result))
            return result
        return spanned

    def plan(self, program):
        """Make a wrapper for each public function and listed method of
        ``program``, under every module name that holds the function; returns
        the patches as ``(owner, attribute, original, wrapper)``."""
        package = program.__name__
        loaded = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        wrappers, patches = {}, []
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(value)):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
            if short in METHODS:
                cls_name, meth = METHODS[short]
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                patches.append((cls, meth, original,
                                self.wrap(f"{short}.{cls_name}.{meth}", original)))
        for module in loaded:
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((module, attr, value, wrappers[value]))
        return patches


def install(patches):
    for owner, attr, _, wrapper in patches:
        setattr(owner, attr, wrapper)


def uninstall(patches):
    for owner, attr, original, _ in patches:
        setattr(owner, attr, original)
