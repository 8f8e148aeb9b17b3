"""Runtime spans around the public names each cauchygft layer exposes.

Nothing in `src/` is edited: `Tracer.install` replaces each traced name where
its caller looks it up (a module global or a class attribute) with a wrapper
that records a span, and `Tracer.uninstall` puts the originals back. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import cauchygft.factorization as factorization
import cauchygft.filters as filters
import cauchygft.partition as partition
import cauchygft.secular as secular
import cauchygft.sparsify as sparsify

# (owner, attribute, span name); each name is patched where its caller
# resolves it, so e.g. leaf solves and Fiedler solves are told apart even
# though both are `graph.dense_eig`.
TRACED = (
    (factorization, "dense_eig", "leaf_eigh"),
    (partition, "dense_eig", "fiedler_dense_eig"),
    (secular, "deflate", "deflate"),
    (secular, "solve_secular", "solve_secular"),
    (secular, "build_cauchy_factor", "build_cauchy_factor"),
    (secular.CauchyFactor, "apply_inplace", "apply_inplace"),
    (partition, "fiedler_vector", "fiedler_vector"),
    (partition, "apply_policy", "apply_policy"),
    (sparsify, "estimate_resistances", "estimate_resistances"),
    (sparsify, "sparsify_interface", "sparsify_interface"),
    (factorization.FactorizedGft, "forward", "forward"),
    (factorization.FactorizedGft, "inverse", "inverse"),
    (factorization.FactorizedGft, "to_dict", "to_dict"),
    (factorization.FactorizedGft, "from_dict", "from_dict"),
    (factorization.FactorizedGft, "save", "save"),
    (factorization.FactorizedGft, "load", "load"),
    (filters, "hierarchical_mix", "hierarchical_mix"),
    (filters, "apply_layer", "apply_layer"),
)

# per span name: what to keep from (args, result), so spans hold no arrays
# beyond what the factorization itself retains
NOTES = {
    "leaf_eigh": lambda args, res: res[0].size,
    "deflate": lambda args, res: (res.dropped_zero.size, res.rotated.size),
    "solve_secular": lambda args, res: res,
    "estimate_resistances": lambda args, res: res.projection_dim,
    "sparsify_interface": lambda args, res: (len(res.kept_edges), res.original_count),
}


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 at top level
    note: object = None  # what NOTES extracted from the call, if anything

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


@dataclass(eq=False)
class Tracer:
    """Span recorder; single-threaded (factorize runs with threads=1)."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter_ns(), 0, parent)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end = time.perf_counter_ns()
            self._stack.pop()
        note = NOTES.get(name)
        if note is not None:
            rec.note = note(args, result)
        return result

    def install(self) -> None:
        for owner, attr, name in TRACED:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- queries -------------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.seconds
        return out

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def under(self, idx: int) -> list[int]:
        """Indices of span `idx` and every span nested inside it."""
        inside = {idx}
        for j in range(idx + 1, len(self.spans)):
            if self.spans[j].parent in inside:
                inside.add(j)
        return sorted(inside)
