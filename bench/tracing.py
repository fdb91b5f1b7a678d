"""Per-layer tracing installed from outside the program.

`Tracer.install()` replaces the public functions of the six indexlab layers
with wrappers in every `indexlab` module namespace that binds them (the
modules import each other's functions by name), and counts `ExactReal`
constructions through a wrapped constructor.  `uninstall()` puts the
originals back.

Each wrapped call pushes a frame.  A call's self time is its duration minus
the time of the wrapped calls made inside it.  Layer-boundary functions also
record a span (id, name, start, end, parent span id, op id), kept in memory;
the high-frequency functions `floor_scaled` and `index_of_iterate` get
counters and self time only.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "id name start end parent op")

# (module, function, record a span); metric names start with "module.function"
TRACED = (
    ("exact", "floor_scaled", False),
    ("symplectic", "decomposition_from_json", True),
    ("iteration", "model_from_json", True),
    ("iteration", "index_of_iterate", False),
    ("morse", "iterate_cutoff", True),
    ("morse", "morse_numbers", True),
    ("morse", "check_morse_inequalities", True),
    ("prover", "replay", True),
    ("prover", "verify_trace", True),
    ("prover", "certificate", True),
    ("prover", "floor_sum_range", False),
    ("cli", "main", True),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()  # derived counts: iterates, facts, ...
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[list] = []  # frames: [child time, span id or None]
        self._next_id = 0
        self._pairs: set = set()  # distinct (model, m) within the current op
        self._patched: list[tuple[object, str, object]] = []

    # -- frames -------------------------------------------------------------

    def wrap(self, name: str, fn, span: bool, after=None):
        """fn with timing under `name`; `after(args, result)` sees each result."""
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = None
            if span:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                if span:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    self.spans.append(Span(sid, name, start, end, parent, self.op))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._pairs.clear()

    def end_op(self) -> None:
        self.counts["iteration.index_of_iterate.distinct"] += len(self._pairs)
        self._pairs.clear()
        self.op = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import indexlab.cli  # loads every layer
        from indexlab import exact

        hooks = {
            "iteration.index_of_iterate": lambda args, r: self._pairs.add((id(args[0]), args[1])),
            "morse.iterate_cutoff": lambda args, r: self.counts.update(
                {"morse.morse_numbers.iterates": r}),
            "morse.morse_numbers": lambda args, r: self.counts.update(
                {"morse.morse_numbers.contributing": sum(r.values)}),
            "prover.replay": lambda args, r: self.counts.update(
                {"prover.facts": sum(len(t.steps) for t in r)}),
        }
        modules = [m for key, m in sys.modules.items()
                   if key == "indexlab" or key.startswith("indexlab.")]
        for module_name, fn_name, span in TRACED:
            name = f"{module_name}.{fn_name}"
            original = getattr(sys.modules[f"indexlab.{module_name}"], fn_name)
            wrapper = self.wrap(name, original, span, hooks.get(name))
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._patch(module, fn_name, wrapper)

        init = exact.ExactReal.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            counts["exact.ExactReal.constructed"] += 1
            init(obj, *args, **kwargs)

        self._patch(exact.ExactReal, "__init__", counted_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_counts(self) -> dict[str, int]:
        """The counts that depend only on the inputs."""
        out = {f"{m}.{f}.calls": self.calls[f"{m}.{f}"] for m, f, _ in TRACED}
        out.update(self.counts)
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        c, calls, s = self.counts, self.calls, self.self_s
        floors = calls["exact.floor_scaled"]
        index_calls = calls["iteration.index_of_iterate"]
        iterates = c["morse.morse_numbers.iterates"]
        return {
            "exact.floor_scaled.calls": (floors, "count"),
            "exact.floor_scaled.self_s": (s["exact.floor_scaled"], "s"),
            "exact.ExactReal.constructed": (c["exact.ExactReal.constructed"], "count"),
            "exact.alloc_per_floor": (_ratio(c["exact.ExactReal.constructed"], floors), "ratio"),
            "symplectic.decomposition_from_json.calls":
                (calls["symplectic.decomposition_from_json"], "count"),
            "symplectic.decomposition_from_json.self_s":
                (s["symplectic.decomposition_from_json"], "s"),
            "iteration.model_from_json.self_s": (s["iteration.model_from_json"], "s"),
            "iteration.index_of_iterate.calls": (index_calls, "count"),
            "iteration.index_of_iterate.self_s": (s["iteration.index_of_iterate"], "s"),
            "iteration.index_of_iterate.distinct_ratio":
                (_ratio(c["iteration.index_of_iterate.distinct"], index_calls), "ratio"),
            "morse.iterate_cutoff.self_s": (s["morse.iterate_cutoff"], "s"),
            "morse.morse_numbers.self_s": (s["morse.morse_numbers"], "s"),
            "morse.morse_numbers.iterates": (iterates, "count"),
            "morse.morse_numbers.contributing_ratio":
                (_ratio(c["morse.morse_numbers.contributing"], iterates), "ratio"),
            "morse.check_morse_inequalities.calls":
                (calls["morse.check_morse_inequalities"], "count"),
            "morse.check_morse_inequalities.self_s": (s["morse.check_morse_inequalities"], "s"),
            "prover.replay.self_s": (s["prover.replay"], "s"),
            "prover.verify_trace.self_s": (s["prover.verify_trace"], "s"),
            "prover.certificate.self_s": (s["prover.certificate"], "s"),
            "prover.facts": (c["prover.facts"], "count"),
            "prover.floor_sum_range.calls": (calls["prover.floor_sum_range"], "count"),
            "cli.main.self_s": (s["cli.main"], "s"),
        }


def _ratio(num: int, den: int) -> float:
    """num / den, and 0 when the layer did no work (den = 0)."""
    return num / den if den else 0.0
