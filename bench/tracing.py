"""Span tracing of the ttlnet layers from outside the package.

Each traced public function is replaced, in every ``ttlnet`` module
namespace (and module-level dict) that holds it, by a wrapper that times
the call. Calls nest on one stack, so a span's self time is its duration
minus the time covered by the spans it caused. Nothing under ``src/`` is
edited: the wrappers are installed from here and removed again.

A layer that the benchmark expects to measure but cannot find is an error
(:class:`HookError`), never a silent zero.
"""

import contextlib
import functools
import importlib
import sys
import time


class HookError(RuntimeError):
    """A traced name is missing, or a required span never fired."""


def _count_steady_state(tracer, args, result):
    q = args[0]
    tracer.add("kron.steady_state.nnz", q.nnz)
    tracer.maximum("kron.steady_state.max_dim", q.rows)


def _count_output(tracer, args, result):
    tracer.add("cache_ops.output.states", result.order)
    tracer.add("cache_ops.output.nnz", result.map.d0.nnz + result.map.d1.nnz)


def _count_analyze(tracer, args, result):
    tracer.maximum(
        "network.analyze.max_states",
        max(d["output"] for d in result.dimensions.values()),
    )


def _count_mc(tracer, args, result):
    if result.stderr > 0:
        tracer.add("renewal.mc_results", 1)


def _count_visits(tracer, args, result):
    tracer.add("sim.node_visits", sum(n.requests for n in result.nodes.values()))


# (module, public name, span name, counter hook). Several names may share a
# span: their self times add up under the one layer name.
TARGETS = [
    ("ttlnet.kron", "steady_state", "kron.steady_state", _count_steady_state),
    ("ttlnet.kron", "kron_sum", "kron.kron_ops", None),
    ("ttlnet.kron", "kron_product", "kron.kron_ops", None),
    ("ttlnet.processes", "validate_map", "processes.validate_map", None),
    ("ttlnet.processes", "superpose", "processes.superpose", None),
    ("ttlnet.processes", "split", "processes.split", None),
    ("ttlnet.processes", "MapSampler", "processes.MapSampler.init", None),
    ("ttlnet.cache_ops", "output_sigma", "cache_ops.output", _count_output),
    ("ttlnet.cache_ops", "output_r", "cache_ops.output", _count_output),
    ("ttlnet.cache_ops", "output_min", "cache_ops.output", _count_output),
    ("ttlnet.metrics", "metrics_from_maps", "metrics.metrics_from_maps", None),
    ("ttlnet.network", "analyze", "network.analyze", _count_analyze),
    ("ttlnet.network", "parse_topology", "network.parse_topology", None),
    ("ttlnet.renewal", "transform_r", "renewal.transform_r", None),
    ("ttlnet.renewal", "transform_sigma", "renewal.transform_sigma", None),
    ("ttlnet.renewal", "transform_min", "renewal.transform_min", _count_mc),
    ("ttlnet.renewal", "expected_tau", "renewal.expected_tau", _count_mc),
    ("ttlnet.renewal", "occupancy_renewal", "renewal.occupancy_renewal", None),
    ("ttlnet.sim", "simulate", "sim.simulate", _count_visits),
    ("ttlnet.sim", "compare", "sim.compare", None),
]

SPANS = sorted({span for _, _, span, _ in TARGETS})


class Tracer:
    """Per-span call counts, self and total seconds, plus named counters."""

    def __init__(self):
        self.stats = {}  # span -> [calls, self_s, total_s]
        self.counters = {}
        self._stack = []  # time covered by children of each open span
        self._patches = []  # (container, key, original)
        self.active = True

    # -- counters -----------------------------------------------------------
    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def reset(self):
        self.stats = {}
        self.counters = {}

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (for untimed checking code)."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def calls(self, span):
        return self.stats.get(span, [0, 0.0, 0.0])[0]

    def self_s(self, span):
        return self.stats.get(span, [0, 0.0, 0.0])[1]

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, span, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = tracer.stats.setdefault(span, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - covered
                entry[2] += elapsed
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever a ``ttlnet`` module holds a reference to it."""
        if self._patches:
            raise HookError("tracer already installed")
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if (name == "ttlnet" or name.startswith("ttlnet.")) and mod is not None
        ]
        for module_name, attr, span, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.uninstall()
                raise HookError(f"traced name {module_name}.{attr} is missing")
            wrapper = self._wrap(span, original, count)
            for mod in namespaces:
                containers = [vars(mod)] + [
                    v for v in vars(mod).values() if type(v) is dict
                ]
                for container in containers:
                    for key, value in list(container.items()):
                        if value is original:
                            self._patches.append((container, key, original))
                            container[key] = wrapper

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []

    def require(self, spans, phase):
        """Raise :class:`HookError` unless every span in `spans` fired."""
        silent = [span for span in spans if self.calls(span) == 0]
        if silent:
            raise HookError(f"spans never fired during {phase}: {', '.join(silent)}")
