"""Timing spans around the package's public functions, installed from
outside the package for the traced benchmark run.

Each hook wraps one public function at its home module and at every
module attribute a sibling module looks it up through (``from .spectra
import diagonalize`` in ``stability`` makes ``cryptoherm.stability.
diagonalize`` a binding of its own).  With every binding wrapped, spans
nest, and a span's self time is its duration minus the time its direct
child spans cover.  Spans stay in memory until the run ends.

A hook whose function or sibling binding is missing, or is bound to a
different object, raises :class:`HookError` instead of silently timing
nothing: a refactor that changes how modules import each other has to
update the table below.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

PKG = "cryptoherm"


class HookError(RuntimeError):
    """A traced function or one of its module bindings is missing."""


# span name -> (home module, attribute, sibling modules that bind the same
# object under the same attribute name).  "" is the package namespace.
FUNCTIONS = {
    "spectra.diagonalize": ("spectra", "diagonalize", ("", "stability", "perturbation", "cli")),
    "spectra.spectrum_is_real": ("spectra", "spectrum_is_real", ("", "cli")),
    "spectra.ep_proximity": ("spectra", "ep_proximity", ("", "cli")),
    "spectra.require_real_nondegenerate": (
        "spectra", "require_real_nondegenerate", ("metric", "perturbation", "stability")),
    "metric.assemble_metric": ("metric", "assemble_metric", ("", "stability", "cli")),
    "metric.fix_ambiguity": ("metric", "fix_ambiguity", ("", "cli")),
    "metric.metric_from_matrix": ("metric", "metric_from_matrix", ("", "perturbation", "cli")),
    "metric.quasi_hermiticity_residual": (
        "metric", "quasi_hermiticity_residual", ("", "dyson", "perturbation", "cli")),
    "dyson.dyson_map": ("dyson", "dyson_map", ("", "cli")),
    "dyson.hermitize": ("dyson", "hermitize", ("", "cli")),
    "perturbation.metric_series": ("perturbation", "metric_series", ("", "stability", "cli")),
    "perturbation.solve_order": ("perturbation", "solve_order", ("",)),
    "perturbation.dyson_from_metric": ("perturbation", "dyson_from_metric", ("", "cli")),
    "perturbation.leading_delta": ("perturbation", "leading_delta", ("",)),
    "perturbation.hidden_hermiticity_test": (
        "perturbation", "hidden_hermiticity_test", ("", "cli")),
    "stability.reality_scan": ("stability", "reality_scan", ("", "cli")),
    "stability.lambda_max": ("stability", "lambda_max", ("", "cli")),
    "stability.series_vs_exact": ("stability", "series_vs_exact", ("",)),
    "stability.exact_matched_metric": ("stability", "exact_matched_metric", ("",)),
    "matrixio.read_matrix": ("matrixio", "read_matrix", ("", "cli")),
    "matrixio.matrix_to_doc": ("matrixio", "matrix_to_doc", ("", "cli")),
    "cli.main": ("cli", "main", ()),
}

# span name -> (home module, class, method); one binding, on the class.
METHODS = {
    "metric.MetricFamily": ("metric", "MetricFamily", "__init__"),
    "perturbation.PerturbationProblem.build": ("perturbation", "PerturbationProblem", "build"),
}

# counter name -> (home module, class, method): calls are counted per
# enclosing span, without a span of their own.
COUNTERS = {
    "stability.FamilySpec.hamiltonian_at": ("stability", "FamilySpec", "hamiltonian_at"),
}


def _module(name: str):
    return importlib.import_module(f"{PKG}.{name}" if name else PKG)


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


# span name -> function of the call's arguments, summed per span name.
METERS = {"matrixio.read_matrix": _file_bytes}


class Tracer:
    """In-memory span recorder.  ``spans`` holds ``[name, start_ns, end_ns,
    parent_index, failed]`` per call, in call order."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.meters: dict = defaultdict(int)
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        meter, meters = METERS.get(name), self.meters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if meter is not None:
                meters[name] += meter(args, kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, True]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
                span[4] = False
                return out
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _count(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(name, spans[stack[-1]][0] if stack else "")] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every hook; on any missing binding, undo and raise."""
        try:
            for name, (home, attr, siblings) in FUNCTIONS.items():
                mod = _module(home)
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    raise HookError(f"{PKG}.{home}.{attr} is missing")
                wrapped = self._wrap(name, fn)
                for site in (home, *siblings):
                    smod = _module(site)
                    where = f"{PKG}.{site}.{attr}" if site else f"{PKG}.{attr}"
                    if smod.__dict__.get(attr) is not fn:
                        raise HookError(f"{where} is missing or is not {PKG}.{home}.{attr}")
                    self._set(smod, attr, wrapped)
            for table, make in ((METHODS, self._wrap), (COUNTERS, self._count)):
                for name, (home, cls_name, meth) in table.items():
                    cls = getattr(_module(home), cls_name, None)
                    raw = None if cls is None else cls.__dict__.get(meth)
                    if raw is None:
                        raise HookError(f"{PKG}.{home}.{cls_name}.{meth} is missing")
                    if isinstance(raw, classmethod):
                        self._set(cls, meth, classmethod(make(name, raw.__func__)))
                    else:
                        self._set(cls, meth, make(name, raw))
        except BaseException:
            self.uninstall()
            raise

    def install_check(self) -> None:
        """Install and remove every hook: fails fast on a missing one."""
        self.install()
        self.uninstall()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, failed calls, total and self time in ns."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for (name, t0, t1, _, failed), c in zip(self.spans, child):
            s = out.setdefault(name, {"calls": 0, "failed": 0, "total_ns": 0, "self_ns": 0})
            s["calls"] += 1
            s["failed"] += failed
            s["total_ns"] += t1 - t0
            s["self_ns"] += t1 - t0 - c
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tfailed\n")
            for name, t0, t1, parent, failed in self.spans:
                fh.write(f"{name}\t{t0}\t{t1}\t{parent}\t{int(failed)}\n")
