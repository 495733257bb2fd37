"""Outside-in tracing of infotherm's public functions for the traced run.

``Tracer.install()`` replaces every traced function at *every* module
namespace that bound it (``bounds``, ``thermo`` and ``blockcoding`` import
``delta_s`` as ``measurement_delta_s`` and several others by name, so
patching only the defining module would miss their calls), and patches the
constructors and methods on their classes.  It also wraps the numpy eigen
and Kronecker kernels to count calls and computed sizes.  ``uninstall()``
puts every original back, so untraced operations run the unmodified code.

Spans (id, name, start, end, parent, op id, raised) are kept in memory,
per thread, and written out by ``write_spans``.  Self time is a span's wall
time minus the wall time of its child spans on the same thread; wait time
is self wall time minus self thread CPU time (``time.thread_time``).
"""
from __future__ import annotations

import array
import functools
import gzip
import importlib
import math
import statistics
import threading
import time

import numpy as np

#: The traced spans, by module: (module, function, class or Class.method).
SPANS = (
    ("linops", "hermitian_eig"),
    ("linops", "psd_function"),
    ("linops", "tensor_product"),
    ("quantum", "DensityMatrix"),
    ("quantum", "DensityMatrix.spectrum"),
    ("quantum", "average_state"),
    ("quantum", "holevo_chi"),
    ("measurement", "Povm"),
    ("measurement", "joint_distribution"),
    ("measurement", "mutual_information"),
    ("measurement", "post_measurement_state"),
    ("measurement", "delta_s"),
    ("bounds", "random_instance"),
    ("bounds", "evaluate_bounds"),
    ("bounds", "maximize_accessible_information"),
    ("thermo", "run_cycle"),
    ("thermo", "extraction_stage"),
    ("thermo", "sigma_to_rho_stage"),
    ("thermo", "rho_to_initial_stage"),
    ("blockcoding", "sequence_ensemble"),
    ("blockcoding", "pretty_good_measurement"),
    ("blockcoding", "block_scan"),
    ("cli", "main"),
    ("cli", "load_problem_spec"),
)
MODULES = ("linops", "quantum", "measurement", "bounds", "thermo", "blockcoding", "cli")
SPAN_NAMES = tuple(f"{mod}.{name}" for mod, name in SPANS)
#: id, span name index, start, end, parent id (-1 for none), op id, raised.
SPAN_FIELDS = 7
KERNEL_METRICS = (
    ("kernel.eig.calls", "count"),
    ("kernel.eig.max_n", "n"),
    ("kernel.eig.n3_sum", "n3"),
    ("kernel.kron.out_bytes", "B"),
)


class _ThreadState:
    """One thread's span stack, span records and running totals."""

    def __init__(self, thread_index: int):
        n = len(SPANS)
        self.thread_index = thread_index
        self.stack: list[list] = []  # [span id, child wall, child cpu]
        self.next_id = 0
        # Ended spans, SPAN_FIELDS doubles each, in the order they ended.
        self.spans = array.array("d")
        self.calls = [0] * n
        self.self_wall = [0.0] * n
        self.self_cpu = [0.0] * n
        self.errors = [0] * n
        self.eig_calls = 0
        self.eig_max_n = 0
        self.eig_n3 = 0
        self.kron_bytes = 0


def _resolve(module, qualname):
    """(owner, attribute, original) for one span target."""
    parts = qualname.split(".")
    obj = getattr(module, parts[0])
    if len(parts) == 2:
        return obj, parts[1], obj.__dict__[parts[1]]
    if isinstance(obj, type):
        return obj, "__init__", obj.__dict__["__init__"]
    return None, parts[0], obj


def _clock_bias_s(samples: int = 2001) -> float:
    """Median (wall - cpu) of an empty span read the way the wrapper reads
    its clocks; the CPU interval encloses the wall interval and the
    thread-clock read costs about a microsecond, so this is negative and is
    taken off each span's wait."""
    perf, cpu = time.perf_counter, time.thread_time
    diffs = []
    for _ in range(samples):
        c0 = cpu()
        t0 = perf()
        t1 = perf()
        c1 = cpu()
        diffs.append((t1 - t0) - (c1 - c0))
    return statistics.median(diffs)


class Tracer:
    """Span and kernel-counter recorder; inert until ``install()``."""

    def __init__(self):
        self.op_id = -1
        self.clock_bias_s = _clock_bias_s()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches = self._plan_patches()

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def _span_wrapper(self, sid: int, fn):
        perf, cpu, tracer = time.perf_counter, time.thread_time, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            span_id = st.next_id
            st.next_id += 1
            parent = st.stack[-1] if st.stack else None
            frame = [span_id, 0.0, 0.0]
            st.stack.append(frame)
            raised = False
            c0 = cpu()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = perf()
                c1 = cpu()
                st.stack.pop()
                wall, used = t1 - t0, c1 - c0
                st.calls[sid] += 1
                st.self_wall[sid] += wall - frame[1]
                st.self_cpu[sid] += used - frame[2]
                if raised:
                    st.errors[sid] += 1
                if parent is not None:
                    parent[1] += wall
                    parent[2] += used
                st.spans.extend(
                    (span_id, sid, t0, t1, parent[0] if parent else -1, tracer.op_id, raised)
                )

        return wrapper

    def _eig_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            n = shape[-1]
            st = tracer._state()
            st.eig_calls += 1
            st.eig_max_n = max(st.eig_max_n, n)
            st.eig_n3 += math.prod(shape[:-2]) * n**3
            return fn(a, *args, **kwargs)

        return wrapper

    def _kron_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            tracer._state().kron_bytes += out.nbytes
            return out

        return wrapper

    # -- patching -----------------------------------------------------------

    def _plan_patches(self):
        """Every (owner, attribute, original, wrapper) that install() sets."""
        modules = [importlib.import_module("infotherm")] + [
            importlib.import_module(f"infotherm.{mod}") for mod in MODULES
        ]
        patches = []
        for sid, (mod, qualname) in enumerate(SPANS):
            owner, attr, original = _resolve(
                importlib.import_module(f"infotherm.{mod}"), qualname
            )
            wrapper = self._span_wrapper(sid, original)
            if owner is not None:
                patches.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for name, value in vars(module).items():
                    if value is original:
                        patches.append((module, name, original, wrapper))
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            patches.append((np.linalg, name, original, self._eig_wrapper(original)))
        patches.append((np, "kron", np.kron, self._kron_wrapper(np.kron)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def span_totals(self) -> dict:
        """Per span name: calls, self wall seconds, self cpu seconds, errors."""
        out = {}
        for sid, name in enumerate(SPAN_NAMES):
            out[name] = {
                "calls": sum(s.calls[sid] for s in self._states),
                "self_s": sum(s.self_wall[sid] for s in self._states),
                "self_cpu_s": sum(s.self_cpu[sid] for s in self._states),
                "errors": sum(s.errors[sid] for s in self._states),
            }
        return out

    def kernel_totals(self) -> dict:
        return {
            "kernel.eig.calls": sum(s.eig_calls for s in self._states),
            "kernel.eig.max_n": max((s.eig_max_n for s in self._states), default=0),
            "kernel.eig.n3_sum": sum(s.eig_n3 for s in self._states),
            "kernel.kron.out_bytes": sum(s.kron_bytes for s in self._states),
        }

    def module_errors(self) -> dict:
        """Per module, the spans that raised.  Zero on a correct run, like
        the error rate, so they are printed rather than carried as metrics."""
        spans = self.span_totals()
        return {
            mod: sum(t["errors"] for name, t in spans.items() if name.split(".")[0] == mod)
            for mod in MODULES
        }

    def per_layer_metrics(self, ops: int) -> dict:
        """The per-layer metrics, normalised per traced op (max_n is a max)."""
        spans = self.span_totals()
        metrics = {}
        for name, tot in spans.items():
            metrics[f"{name}.calls"] = (tot["calls"] / ops, "count")
            metrics[f"{name}.self_ms"] = (1e3 * tot["self_s"] / ops, "ms")
        for mod in MODULES:
            mine = [tot for name, tot in spans.items() if name.split(".")[0] == mod]
            wait = sum(
                t["self_s"] - t["self_cpu_s"] - t["calls"] * self.clock_bias_s for t in mine
            )
            metrics[f"{mod}.wait_ms"] = (1e3 * wait / ops, "ms")
        units = dict(KERNEL_METRICS)
        for name, value in self.kernel_totals().items():
            per_op = value if name == "kernel.eig.max_n" else value / ops
            metrics[name] = (per_op, units[name])
        return metrics

    def write_spans(self, path) -> int:
        """Write every recorded span as gzipped CSV; returns the number written."""
        count = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("thread,id,name,start_s,end_s,parent,op,raised\n")
            for st in self._states:
                rec = st.spans
                for k in range(0, len(rec), SPAN_FIELDS):
                    span_id, sid, t0, t1, parent, op, raised = rec[k:k + SPAN_FIELDS]
                    fh.write(
                        f"{st.thread_index},{int(span_id)},{SPAN_NAMES[int(sid)]},"
                        f"{t0:.9f},{t1:.9f},{int(parent)},{int(op)},{int(raised)}\n"
                    )
                    count += 1
        return count
