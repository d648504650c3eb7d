"""Span recording around calls into the simulator's layers.

The simulator's modules import each other's functions by name, so a call is
only seen if the binding it is looked up through is replaced. ``Tracer``
replaces every such binding with a recording wrapper and puts the originals
back on exit. Spans are kept in memory as (name, start, end, parent) columns
and written out once the run ends; a layer's self time is its span minus the
time its direct child spans cover.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from swipt_relay import allocator, baselines, channel, model, montecarlo, oracle

# (owner, attribute, span name): every place where some caller looks a
# layer function up at call time.
BINDINGS = (
    (channel, "generate_channel", "channel.generate_channel"),
    (montecarlo, "generate_channel", "channel.generate_channel"),
    (allocator, "sorted_pairing", "allocator.sorted_pairing"),
    (allocator, "split_and_gain", "allocator.split_and_gain"),
    (allocator, "waterfill", "allocator.waterfill"),
    (allocator, "solve", "allocator.solve"),
    (baselines, "solve", "allocator.solve"),
    (baselines, "sorted_pairing", "allocator.sorted_pairing"),
    (baselines, "split_and_gain", "allocator.split_and_gain"),
    (baselines, "waterfill", "allocator.waterfill"),
    (baselines, "solve_opa_no_pairing", "baselines.solve_opa_no_pairing"),
    (baselines, "solve_uniform", "baselines.solve_uniform"),
    (baselines, "solve_conventional", "baselines.solve_conventional"),
    (montecarlo, "solve_policy", "baselines.solve_policy"),
    (montecarlo, "run_trials", "montecarlo.run_trials"),
    (montecarlo, "sweep", "montecarlo.sweep"),
    (montecarlo.SweepResult, "to_csv", "montecarlo.to_csv"),
    (montecarlo, "validate_config", "model.validate_config"),
    (model, "validate_config", "model.validate_config"),
    (oracle, "solve", "allocator.solve"),
    (oracle, "waterfill", "allocator.waterfill"),
    (oracle, "best_pairing_exhaustive", "oracle.best_pairing_exhaustive"),
    (oracle, "verify", "oracle.verify"),
)


class Tracer:
    """Context manager that records a span for every call through
    ``BINDINGS`` and restores each binding on exit.

    ``solve_policy`` spans are named per policy. Two values are read from
    results, after the span ends: the share of pairs each ``waterfill`` call
    powers, and the dead trials each ``run_trials`` call counts.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.active_fracs = array("d")
        self.dead_trials = 0
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, func, span_name: str):
        name_ids, starts, ends, parents = self.name_id, self.start_ns, self.end_ns, self.parent
        stack = self._stack
        clock = time.perf_counter_ns
        if span_name == "baselines.solve_policy":
            per_policy = {}

            def name_of(args, kwargs):
                policy = args[0] if args else kwargs["policy"]
                if policy not in per_policy:
                    per_policy[policy] = self._id(f"{span_name}.{policy.value}")
                return per_policy[policy]
        else:
            fixed = self._id(span_name)

            def name_of(args, kwargs):
                return fixed

        if span_name == "allocator.waterfill":
            fracs = self.active_fracs

            def observe(powers):
                fracs.append(np.count_nonzero(powers) / powers.size)
        elif span_name == "montecarlo.run_trials":
            def observe(result):
                self.dead_trials += sum(result.dead_trials.values())
        else:
            observe = None

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_of(args, kwargs))
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, span_name in BINDINGS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for owner, attr, _ in BINDINGS:
            if hasattr(owner.__dict__[attr], "__wrapped__"):
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")

    def _columns(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int64),
            np.frombuffer(self.start_ns, dtype=np.int64),
            np.frombuffer(self.end_ns, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        names, starts, ends, parents = self._columns()
        if names.size == 0:
            return {}
        duration = (ends - starts).astype(float)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested], minlength=names.size)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=duration - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": total[i] * 1e-9, "self_s": own[i] * 1e-9}
            for i, name in enumerate(self.names)
        }

    def calls_under(self, parent_name: str, child_name: str) -> int:
        """Calls of ``child_name`` made directly from ``parent_name``."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        names, _, _, parents = self._columns()
        hit = (names == self._ids[child_name]) & (parents >= 0)
        return int(np.count_nonzero(names[parents[hit]] == self._ids[parent_name]))

    def write(self, path) -> None:
        """Write the spans as NumPy arrays: ``names`` (the span names),
        ``name_id``, ``start_ns``, ``end_ns`` and ``parent`` (row index of
        the enclosing span, -1 at the top)."""
        names, starts, ends, parents = self._columns()
        np.savez(path, names=np.array(self.names), name_id=names, start_ns=starts, end_ns=ends, parent=parents)
