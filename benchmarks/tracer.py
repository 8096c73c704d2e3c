"""Traced run of one CLI subcommand, in its own interpreter.

Usage: python3 benchmarks/tracer.py SPANS_JSON -- CLI_ARGV...

Imports ``pharmonious``, replaces the public functions and methods of its
modules with span-recording wrappers, calls ``pharmonious.cli.main(argv)``
once and writes every span to SPANS_JSON.  The process exits with the CLI's
exit code.  Nothing under ``src/`` is changed: the wrappers are installed
from outside, at the names the callers look up (``cli.square_grid`` as well
as ``space.square_grid``), so every call through the package is seen.

A span is ``[parent, layer, name, start, end, counters]``; ``parent`` is the
index of the enclosing span or -1, ``layer`` the short name of the module
that defines the function.  Spans stay in memory until the call returns.
Counters that would cost time inside a span (index runs of a ball table)
are computed after the call, outside every span.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

LAYERS = ("space", "radius", "operators", "solver", "regularity", "cli")
# Dunder methods that do real work; the others (__len__, __getitem__, ...)
# are trivial and hot, so their time stays with the caller.
DUNDERS = ("__init__", "__call__", "__post_init__")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.tables = []        # BallTable objects, counted after the run
        self.wrapped = {}       # original function -> wrapper

    def wrap(self, fn, layer, hook=None):
        if fn in self.wrapped:
            return self.wrapped[fn]
        name = f"{layer}.{fn.__qualname__}"
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = [parent, layer, name, t0, t1, None]
            if hook is not None:
                spans[sid][5] = hook(args, kwargs, result)
            return result

        self.wrapped[fn] = traced
        return traced

    def install(self, package):
        """Wrap every public function and method of the traced layers."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        module_names = {m.__name__: layer for layer, m in modules.items()}
        hooks = self._hooks()
        for obj in {id(o): o for m in modules.values()
                    for o in vars(m).values()}.values():
            layer = module_names.get(getattr(obj, "__module__", None))
            if layer is None:
                continue
            if inspect.isclass(obj) and not issubclass(obj, BaseException):
                self._wrap_class(obj, layer, hooks)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                layer = module_names.get(getattr(obj, "__module__", None))
                if (layer is None or attr.startswith("_")
                        or not inspect.isfunction(obj)
                        or inspect.isgeneratorfunction(obj)):
                    continue
                setattr(module, attr,
                        self.wrap(obj, layer, hooks.get(obj.__qualname__)))

    def _wrap_class(self, cls, layer, hooks):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            kind = None
            if isinstance(member, (classmethod, staticmethod)):
                kind, member = type(member), member.__func__
            if not inspect.isfunction(member) or inspect.isgeneratorfunction(member):
                continue
            wrapped = self.wrap(member, layer, hooks.get(member.__qualname__))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def _hooks(self):
        def table_built(args, kwargs, result):
            self.tables.append(args[0])
            return None

        def swept(args, kwargs, result):
            return {"members": int(len(args[0].indices))}

        def row(args, kwargs, result):
            return {"source": int(args[1])}

        def holder(args, kwargs, result):
            return {"pairs": int(result.pairs), "mode": result.mode}

        return {"BallTable.__init__": table_built,
                "BallTable.alpha_means": swept,
                "Space.distances_from": row,
                "empirical_holder": holder}


def table_counts(table, n_points):
    """Kernel counts of one ball table, from its public attributes.

    members: ball memberships (len(indices)).  index_runs: maximal runs of
    consecutive point indices inside one ball.  bytes_per_sweep: computed,
    not measured: every array the table holds plus the field read and the
    swept values written, each touched once per sweep.
    """
    import numpy as np

    idx = np.asarray(table.indices)
    starts = np.asarray(table.starts)
    breaks = np.ones(len(idx), dtype=bool)
    if len(idx):
        breaks[1:] = np.diff(idx) != 1
        breaks[starts[starts < len(idx)]] = True
    arrays = sum(v.nbytes for v in vars(table).values()
                 if isinstance(v, np.ndarray))
    return {"members": int(len(idx)), "index_runs": int(breaks.sum()),
            "bytes_per_sweep": int(arrays + 8 * n_points
                                   + 8 * len(table.centers))}


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    t0 = time.perf_counter()
    import pharmonious
    import pharmonious.cli
    t_import = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(pharmonious)
    t_main = time.perf_counter()
    try:
        rc = pharmonious.cli.main(cli_argv)
    finally:
        t_end = time.perf_counter()
        doc = {"import_s": t_import,
               "install_s": t_main - t0 - t_import,
               "main_s": t_end - t_main,
               "spans": tracer.spans,
               "tables": [table_counts(t, len(t.space)) for t in tracer.tables]}
        # the script's own time, from its first statement to the dump
        doc["script_s"] = time.perf_counter() - _START
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
