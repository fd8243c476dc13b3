"""Span tracing of flemvi's layers from outside the package.

The tracer replaces public functions and methods of ``flemvi`` with wrappers
that record a span (name, start, end, parent) per call, plus a few counts,
and restores every original on ``remove``.  A module-level function is
wrapped under the name each caller looks it up by: the attribute is replaced
in every module that imported it, so ``flemvi.verify.first_exit_batch`` and
``flemvi.simulator.first_exit_batch`` both record.  Methods are replaced on
their class.

Spans stay in memory, one stack per thread, and are summarised once the
traced call returns.  A span's self time is its duration minus the durations
of its child spans on the same thread, so the self times of one thread sum to
the durations of that thread's root spans.

The wrappers call through with the same arguments and return the same
objects, so a traced run consumes the same random numbers and writes the same
bytes as an untraced one.
"""

import functools
import math
import sys
import threading
import time

import numpy as np

# span names; a layer's ``.calls`` is its number of spans and ``.self_s``
# the sum of their self times.  ``advance_steps`` spans are reported under
# ``simulator.step``: their self time is the loop around ``_step_inplace``.
LAYERS = (
    "cli.main", "cli.build",
    "kernels.relocate", "kernels.init_sample",
    "spectral.eigmat", "spectral.eigfn", "spectral.density",
    "simulator.step", "simulator.advance", "simulator.detect_hits",
    "simulator.first_exit", "simulator.run_replicas", "simulator.replica",
    "measures.observe", "measures.empirical",
    "verify.oracle", "verify.reduce",
)

# layers whose spans never nest in one another, reported with their
# inclusive time (``.total_s``) as well: the self time of a sampler leaves
# out the spectral evaluation it calls
TOTAL_GROUPS = ("cli.build", "kernels.relocate", "kernels.init_sample",
                "simulator.first_exit")

# counts of work, kept per thread by the wrappers
COUNTERS = (
    "simulator.relocations",
    "kernels.proposals",
    "kernels.accepted",
    "spectral.evals",
    "simulator.particle_steps",
    "simulator.exit_configs",
    "simulator.exit_steps",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "cpu")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.cpu = None


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.spans = []
        self.stack = []
        self.rejection_depth = 0
        self.counts = dict.fromkeys(COUNTERS, 0)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = []
        self._patches = []

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def threads(self):
        with self._lock:
            return list(self._threads)

    def call(self, name, fn, *args, fold=False, cpu=False, **kwargs):
        """Run ``fn`` inside a span called ``name``.  With ``fold``, a call
        made while the innermost open span already has that name records no
        span of its own (nested calls of one layer, such as ``pair`` inside
        ``cylinder_value``, stay one span)."""
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        if fold and parent is not None and parent.name == name:
            return fn(*args, **kwargs)
        span = Span(name, parent)
        st.spans.append(span)
        st.stack.append(span)
        if cpu:
            span.cpu = time.thread_time()
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if cpu:
                span.cpu = time.thread_time() - span.cpu
            st.stack.pop()

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_function(self, modules, attr, make_wrapper):
        """Replace ``attr`` in each module of ``modules`` that holds the same
        function object as the first one."""
        original = getattr(modules[0], attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._replace(mod, attr, wrapper)

    def wrap_method(self, cls, attr, make_wrapper):
        original = cls.__dict__[attr]
        self._replace(cls, attr, functools.wraps(original)(make_wrapper(original)))

    def remove(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap the layer boundaries of flemvi; returns self."""
        import flemvi.cli as cli
        import flemvi.kernels as kernels
        import flemvi.measures as measures
        import flemvi.simulator as simulator
        import flemvi.spectral as spectral
        import flemvi.verify as verify

        def span(name, fold=False, after=None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    result = self.call(name, fn, *args, fold=fold, **kwargs)
                    if after is not None:
                        after(self._state(), args, result)
                    return result
                return wrapper
            return make

        def on_relocate(st, args, result):
            if any(s.name == "simulator.step" for s in st.stack):
                st.counts["simulator.relocations"] += 1

        def on_eigmat(st, args, result):
            st.counts["spectral.evals"] += int(result.size)

        def on_step(st, args, result):
            st.counts["simulator.particle_steps"] += int(args[1].shape[0])

        def on_first_exit(st, args, result):
            taus = result[2]
            dt = args[2]
            st.counts["simulator.exit_configs"] += int(len(taus))
            st.counts["simulator.exit_steps"] += int(np.ceil(taus / dt).sum())

        for attr in ("build_basis", "build_law", "build_kernel"):
            self.wrap_method(cli.RunConfig, attr, span("cli.build"))
        self.wrap_function((kernels, simulator, verify), "sample_relocation",
                           span("kernels.relocate", after=on_relocate))
        for attr in ("sample_initial_configuration", "sample_curvature_weighted"):
            self.wrap_function((kernels, cli, simulator, verify), attr,
                               span("kernels.init_sample"))

        # proposals are ground-mode draws made inside the rejection sampler;
        # the ground-mode relocation kernel also calls sample_ground_mode,
        # but those draws are the result, not proposals
        def count_accepted(fn):
            def wrapper(*args, **kwargs):
                st = self._state()
                st.rejection_depth += 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    st.rejection_depth -= 1
                st.counts["kernels.accepted"] += int(len(out))
                return out
            return wrapper

        def count_proposals(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                st = self._state()
                if st.rejection_depth:
                    st.counts["kernels.proposals"] += int(len(out))
                return out
            return wrapper

        self.wrap_method(kernels.AdmissibleDensity, "sample", count_accepted)
        self.wrap_method(kernels.AdmissibleDensity, "sample_neg_half_laplacian",
                         count_accepted)
        self.wrap_function((kernels,), "sample_ground_mode", count_proposals)

        self.wrap_method(spectral.SpectralBasis, "eigenfunction_matrix",
                         span("spectral.eigmat", after=on_eigmat))

        # eigenfunction calls made by eigenfunction_matrix belong to its span
        def eigfn(fn):
            def wrapper(*args, **kwargs):
                st = self._state()
                if st.stack and st.stack[-1].name == "spectral.eigmat":
                    return fn(*args, **kwargs)
                return self.call("spectral.eigfn", fn, *args, **kwargs)
            return wrapper

        self.wrap_method(spectral.SpectralBasis, "eigenfunction", eigfn)
        for attr in ("density", "half_laplacian"):
            self.wrap_method(spectral.DensityMeasure, attr, span("spectral.density"))

        self.wrap_function((simulator,), "_step_inplace", span("simulator.step", after=on_step))
        self.wrap_function((simulator, verify), "advance_steps", span("simulator.advance"))
        self.wrap_function((simulator,), "_detect_hits", span("simulator.detect_hits"))
        self.wrap_function((simulator, verify), "first_exit_batch",
                           span("simulator.first_exit", after=on_first_exit))

        def run_replicas(fn):
            def wrapper(M, seed, worker, jobs=1):
                def traced_worker(rng, m):
                    return self.call("simulator.replica", worker, rng, m, cpu=True)
                return self.call("simulator.run_replicas", fn, M, seed, traced_worker, jobs)
            return wrapper

        self.wrap_function((simulator, verify), "run_replicas", run_replicas)

        observe = span("measures.observe", fold=True)
        self.wrap_function((measures, simulator, verify), "cylinder_value", observe)
        self.wrap_function((measures, verify), "pair", observe)
        self.wrap_method(measures.EmpiricalMeasure, "__post_init__", span("measures.empirical"))

        oracle = span("verify.oracle", fold=True)
        for attr in ("flow", "flow_generator", "resolvent_target"):
            self.wrap_function((verify,), attr, oracle)
        self.wrap_function((simulator, verify), "mean_and_stderr", span("verify.reduce"))
        return self


def snapshot():
    """Every attribute of the loaded flemvi modules and of the classes they
    define, keyed by dotted name; compare two with ``changed``."""
    state = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "flemvi" or mod_name.startswith("flemvi.")):
            continue
        for attr, value in vars(mod).items():
            state[f"{mod_name}.{attr}"] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for a, v in vars(value).items():
                    state[f"{mod_name}.{attr}.{a}"] = v
    return state


def changed(before, after):
    """Names added, removed or rebound between two snapshots."""
    return sorted(name for name in before.keys() | after.keys()
                  if before.get(name, changed) is not after.get(name, changed))


# -- summaries ------------------------------------------------------------------


def self_times(spans):
    """Self time of each span of one thread, in list order; a parent on
    another thread is left out (``check_spans`` reports it)."""
    index = {id(s): i for i, s in enumerate(spans)}
    child = [0.0] * len(spans)
    for s in spans:
        i = index.get(id(s.parent))
        if i is not None:
            child[i] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def check_spans(threads, tol=1e-9):
    """Problems with the recorded spans, as strings: negative self time,
    a child outside its parent's interval or on another thread, open spans,
    and per-thread self times that do not sum to the root durations."""
    problems = []
    for st in threads:
        if st.stack:
            problems.append(f"thread {st.ident}: {len(st.stack)} span(s) left open")
        own = {id(s) for s in st.spans}
        selfs = self_times(st.spans)
        for s, self_s in zip(st.spans, selfs):
            if self_s < -tol:
                problems.append(f"{s.name}: negative self time {self_s!r}")
            p = s.parent
            if p is None:
                continue
            if id(p) not in own:
                problems.append(f"{s.name}: parent {p.name} is on another thread")
            elif s.start < p.start or s.end > p.end:
                problems.append(f"{s.name}: outside its parent {p.name}")
        roots = math.fsum(s.end - s.start for s in st.spans if s.parent is None)
        if abs(math.fsum(selfs) - roots) > tol * max(1, len(selfs)):
            problems.append(f"thread {st.ident}: self times do not sum to root time")
    return problems


def _pmax(values):
    """Highest percentile with at least ten samples beyond it: the value at
    rank N-11 of the sorted samples, or the maximum when N <= 10."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def summarize(threads):
    """Per-layer metrics of one traced call: counts summed over threads,
    span counts and self times per layer, replica latency percentiles and
    waiting."""
    out = dict.fromkeys(COUNTERS, 0.0)
    for name in LAYERS:
        out[f"{name}.calls"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for name in TOTAL_GROUPS:
        out[f"{name}.total_s"] = 0.0
    replica_wall, replica_cpu = [], []
    for st in threads:
        for key, value in st.counts.items():
            out[key] += value
        for s, self_s in zip(st.spans, self_times(st.spans)):
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += self_s
            if s.name in TOTAL_GROUPS:
                out[f"{s.name}.total_s"] += s.end - s.start
            if s.name == "simulator.replica":
                replica_wall.append(s.end - s.start)
                replica_cpu.append(s.cpu)
    out["simulator.step.self_s"] += out.pop("simulator.advance.self_s")
    proposals = out["kernels.proposals"]
    out["kernels.accept_ratio"] = out["kernels.accepted"] / proposals if proposals else 0.0
    out["simulator.replica.p50_ms"] = 1e3 * float(np.median(replica_wall)) if replica_wall else 0.0
    out["simulator.replica.pmax_ms"] = 1e3 * _pmax(replica_wall) if replica_wall else 0.0
    out["simulator.replica.wait_share"] = (
        1.0 - math.fsum(replica_cpu) / math.fsum(replica_wall) if replica_wall else 0.0)
    return out
