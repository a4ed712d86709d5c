"""Outside-in span recorder for the dygauss layers.

The recorder patches every module-level binding of a layer's public
functions (the names in the defining module's ``__all__``), in every dygauss
module. Callers bind with ``from .x import f``, so ``dygauss.posterior.digamma``
and ``dygauss.specfun.digamma`` are both replaced: a call is traced under the
name the caller actually resolves. ``simplex`` is not a layer; it is reached
only through ``baselines``, so its time counts there.

A span is (function, start, end, parent, op, thread). Spans live in flat
arrays in memory and are written out once, at the end of the run. A span that
opens on a thread with no open span of its own (a pool worker in ``select``
or ``compare``) is attached to the innermost span open on the client thread at
that moment; ops run one at a time, so that span belongs to the current op.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "dygauss"
LAYERS = (
    "tableio",
    "parametrization",
    "specfun",
    "posterior",
    "baselines",
    "selection",
    "metrics",
    "simulate",
    "cli",
)

# Counters computed from the sizes of returned objects, per layer.
COUNTERS = {
    "parametrization": ("design_bytes",),
    "posterior": ("dense_cov_bytes",),
    "baselines": ("draws",),
    "selection": ("path_points",),
}

KKT_TOL = 1e-6


class MissingLayerError(RuntimeError):
    """A layer the workload must exercise recorded no span."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.function"
        self.layer_of: list[int] = []  # function id -> index into LAYERS
        self._fid = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._op = array("i")
        self._thread = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = {}
        self.lasso_calls: list[tuple] = []
        self._patches = self._build_patches()

    # -- patching -----------------------------------------------------------

    def _build_patches(self):
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrapped: dict[int, object] = {}
        patches = []
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                home = sys.modules.get(obj.__module__)
                layer = obj.__module__.rsplit(".", 1)[-1]
                if home is None or layer not in LAYERS or obj.__name__ not in getattr(home, "__all__", ()):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, layer)
                patches.append((mod, attr, obj, wrapped[id(obj)]))
        return patches

    def install(self) -> None:
        for mod, attr, _, traced in self._patches:
            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, fn, layer: str):
        fid = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        self.layer_of.append(LAYERS.index(layer))
        probe = _PROBES.get(layer)
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                client = tracer._client_stack
                parent = client[-1] if client and stack is not client else -1
            with tracer._lock:
                idx = len(tracer._fid)
                tracer._fid.append(fid)
                tracer._parent.append(parent)
                tracer._op.append(tracer.op)
                tracer._thread.append(threading.get_ident())
                tracer._end.append(0.0)
                tracer._start.append(perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(tracer, idx, args, kwargs, result)
            return result

        return traced

    def begin_op(self, op: int) -> None:
        """Mark the calling thread as the client and ``op`` as the current op."""
        self.op = op
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        self._client_stack = stack

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + value

    # -- analysis -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self._fid, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
            "thread": np.frombuffer(self._thread, dtype=np.int64).copy(),
        }

    def self_times(self, spans: dict[str, np.ndarray]) -> np.ndarray:
        """Each span's duration minus the part of it its children cover.

        Children on the parent's own thread run one after another, so their
        durations add. A parent with children on other threads (a pool) gets
        the union of all its children's intervals instead.
        """
        start, end, parent, thread = spans["start"], spans["end"], spans["parent"], spans["thread"]
        dur = end - start
        n = dur.size
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
        cross = has_parent.copy()
        cross[has_parent] = thread[has_parent] != thread[parent[has_parent]]
        for p in np.unique(parent[cross]):
            kids = np.flatnonzero(parent == p)
            covered[p] = _union_length(start[kids], end[kids])
        return np.maximum(dur - covered, 0.0)

    def layer_metrics(self, traced_ops: int, expected: tuple[str, ...]) -> dict[str, float]:
        """Per-layer calls and self time per traced op, counters and ratios.

        Raises MissingLayerError when an expected layer recorded no span.
        """
        spans = self.spans()
        self_s = self.self_times(spans)
        layer = np.asarray(self.layer_of, dtype=np.int64)[spans["fid"]]
        calls = np.bincount(layer, minlength=len(LAYERS))
        busy = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        missing = [name for name in expected if calls[LAYERS.index(name)] == 0]
        if missing:
            raise MissingLayerError(f"expected layers recorded no span: {', '.join(missing)}")

        per_op = max(traced_ops, 1)
        out: dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = float(calls[i]) / per_op
            out[f"{name}.self_s"] = float(busy[i]) / per_op
            for key in COUNTERS.get(name, ()):
                out[f"{name}.{key}"] = self.counters.get(f"{name}.{key}", 0.0) / per_op

        # draws per second of time inside the spans that returned draws
        draw_time = self.counters.get("baselines.draw_span_s", 0.0)
        out["baselines.draws_per_s"] = (
            self.counters.get("baselines.draws", 0.0) / draw_time if draw_time > 0 else 0.0
        )
        certified, points = self.certified_points()
        out["selection.certified_ratio"] = certified / points if points else 0.0
        out["cli.concurrency"] = self.concurrency(spans, self_s)
        return out

    def certified_points(self) -> tuple[int, int]:
        """Path points whose KKT residual, recomputed here, is at most KKT_TOL."""
        certified = points = 0
        for theta_hat, sigma, lambdas, coefs in self.lasso_calls:
            residual = kkt_residuals(theta_hat, sigma, lambdas, coefs)
            certified += int((residual <= KKT_TOL).sum())
            points += residual.size
        return certified, points

    def concurrency(self, spans, self_s) -> float:
        """Mean over ops of (sum of the op's self times) / (wall time of cli.main).

        Reads 1 when no two spans of an op are open at once and rises with
        the time spans on pool threads overlap.
        """
        main_fid = self.names.index("cli.main") if "cli.main" in self.names else -1
        roots = np.flatnonzero((spans["fid"] == main_fid) & (spans["parent"] < 0))
        if roots.size == 0:
            return 0.0
        total = np.bincount(spans["op"], weights=self_s)
        wall = spans["end"][roots] - spans["start"][roots]
        return float(np.mean(total[spans["op"][roots]] / wall))

    def write(self, path: Path) -> None:
        """Spans as arrays; ``names[fid]`` names each span's function."""
        np.savez(path, names=np.array(self.names), **self.spans())


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    order = np.argsort(starts)
    total = 0.0
    cur_s = cur_e = None
    for s, e in zip(starts[order], ends[order]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return float(total)


def kkt_residuals(theta_hat, sigma, lambdas, coefs) -> np.ndarray:
    """Worst KKT violation per path point of
    min (t - theta_hat)^T Sigma^{-1} (t - theta_hat) + lam ||t||_1."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if hasattr(sigma, "to_dense"):
        sigma = sigma.to_dense()
    precision = np.linalg.inv(np.asarray(sigma, dtype=float))
    grad = 2.0 * (np.asarray(coefs) - theta_hat) @ precision
    lam = np.asarray(lambdas)[:, None]
    active = np.asarray(coefs) != 0.0
    violation = np.where(active, np.abs(grad + lam * np.sign(coefs)), np.maximum(np.abs(grad) - lam, 0.0))
    return violation.max(axis=1)


# -- probes: counters from returned objects -----------------------------------


def _probe_parametrization(tracer, idx, args, kwargs, result):
    entries = getattr(result, "entries", None)
    if isinstance(entries, np.ndarray):
        tracer.count("parametrization.design_bytes", entries.nbytes)


def _probe_posterior(tracer, idx, args, kwargs, result):
    cov = getattr(result, "cov", None)
    if isinstance(cov, np.ndarray):
        tracer.count("posterior.dense_cov_bytes", cov.nbytes)


def _probe_baselines(tracer, idx, args, kwargs, result):
    draws = getattr(result, "draws", result)
    if isinstance(draws, np.ndarray) and draws.ndim == 2:
        tracer.count("baselines.draws", draws.shape[0])
        tracer.count("baselines.draw_span_s", tracer._end[idx] - tracer._start[idx])


def _probe_selection(tracer, idx, args, kwargs, result):
    lambdas = getattr(result, "lambdas", None)
    coefs = getattr(result, "coefs", None)
    if lambdas is None or coefs is None:
        return
    tracer.count("selection.path_points", lambdas.size)
    theta_hat = args[0] if args else kwargs["theta_hat"]
    sigma = args[1] if len(args) > 1 else kwargs["sigma"]
    with tracer._lock:
        tracer.lasso_calls.append((np.array(theta_hat, dtype=float), sigma, lambdas, coefs))


_PROBES = {
    "parametrization": _probe_parametrization,
    "posterior": _probe_posterior,
    "baselines": _probe_baselines,
    "selection": _probe_selection,
}
