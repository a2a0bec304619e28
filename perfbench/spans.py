"""Outside-in span tracer for the randldl benchmark.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, the names that ``randldl.factor`` and ``randldl.solve`` resolve at call
time from ``core``, ``pivot``, ``sketch`` and ``scipy.linalg`` with timing
wrappers, and restores them afterwards.  The pivot rules additionally get
their ``column_at``/``diag_at`` callbacks wrapped, so the rook walk's column
fetches are timed apart from the comparisons.

Each span records its self time (its duration minus the time its child spans
cover) and a call count; spans are aggregated in memory per name, not stored
one by one.  The modules are reached through ``importlib`` because the
package re-exports the functions ``factor`` and ``solve`` under the same
names as their modules, so ``import randldl.factor as F`` yields the function.

A wrapped name (or module) that no longer exists is recorded in ``absent``
instead of failing the run; a span left with no wrapped source is missing
from ``wrapped``, and the report leaves its metrics out.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) -> span name.  The pivot rules are handled separately.
PLAIN_SPANS = {
    ("randldl.factor", "mirror_lower"): "core.mirror_lower",
    ("randldl.factor", "sym_swap"): "core.sym_swap",
    ("randldl.factor", "column_norms"): "core.column_norms",
    ("randldl.factor", "_block_multipliers"): "factor.block_multipliers",
    ("randldl.factor", "partial_qrcp"): "sketch.partial_qrcp",
    # The only triangular solve inside factor is the q = b sketch correction.
    ("randldl.factor", "solve_triangular"): "sketch.correction",
    ("randldl.solve", "solve_triangular"): "solve.triangular",
    ("randldl.solve", "block_diag_solve"): "solve.block_diag",
}
PIVOT_RULES = ("_sbkp_from_data", "_bkpp_from_data", "_bbk_from_data")
CALLBACKS = ("column_at", "diag_at")


def _mirror_bytes(a) -> int:
    # Reads the strict lower triangle and writes the strict upper one.
    m = a.shape[0]
    return 8 * m * (m - 1)


def _swap_bytes(a, i, j) -> int:
    # Two rows and two columns, each read and written once.
    return 0 if i == j else 64 * a.shape[0]


BYTE_MODELS = {"core.mirror_lower": _mirror_bytes, "core.sym_swap": _swap_bytes}


class Tracer:
    """Self-time and call-count aggregation over nested spans."""

    def __init__(self) -> None:
        self.absent: set[str] = set()  # "module.attr" names that no longer exist
        self.wrapped: set[str] = set()  # span names with at least one wrapped source
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.bytes: Counter[str] = Counter()
        self.decisions: Counter[str] = Counter()
        self._child_time: list[float] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        self._child_time.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.self_s[name] += dt - self._child_time.pop()
            self.calls[name] += 1
            if self._child_time:
                self._child_time[-1] += dt

    def _wrap(self, fn, name: str):
        bytes_of = BYTE_MODELS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if bytes_of is not None:
                self.bytes[name] += bytes_of(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)

        return traced

    def _wrap_rule(self, rule):
        @functools.wraps(rule)
        def traced(*args, **kwargs):
            for key in CALLBACKS:
                if key in kwargs:
                    kwargs[key] = self._wrap(kwargs[key], "pivot.column_fetch")
            decision = self.span("pivot.search", rule, *args, **kwargs)
            self.decisions[decision.kind.value.replace("-", "_")] += 1
            return decision

        return traced

    @contextmanager
    def installed(self):
        """Swap in the wrappers for the body of the ``with`` block."""
        targets = [(mod, attr, name) for (mod, attr), name in PLAIN_SPANS.items()]
        targets += [("randldl.factor", rule, "pivot.search") for rule in PIVOT_RULES]
        saved = []
        try:
            for mod_name, attr, name in targets:
                try:
                    module = importlib.import_module(mod_name)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.add(f"{mod_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                if name == "pivot.search":
                    setattr(module, attr, self._wrap_rule(original))
                else:
                    setattr(module, attr, self._wrap(original, name))
                self.wrapped.add(name)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
