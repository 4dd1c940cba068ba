"""Span tracer for the traced benchmark run, applied from outside the package.

Run as a script, it imports ``mixedqgt.cli`` (timing the import), wraps
every public function, public method and class constructor of the layer
modules plus ``numpy.linalg.eigh/eigvalsh/svd`` in a span recorder, calls
``mixedqgt.cli.main`` on the remaining arguments and, when ``main``
returns, writes the per-name span totals to the JSON file TOTALS:

    python perfbench/tracer.py TOTALS -- field --model bloch ...

Spans are kept in memory as (name, start, end, parent).  TOTALS holds
``{"import_s": ..., "exit": ..., "totals": {name: [calls, self_s]}}``, where
a span's self time is its duration minus the durations of its direct
children.
"""

import functools
import sys
import time
import types

# numpy and json are imported only after the timed import of
# mixedqgt.cli, so setup.import_s includes what the CLI pays for them.

LAYERS = ("states", "bundle", "qgt", "geodesics", "transport", "models", "cli")
LINALG = ("eigh", "eigvalsh", "svd")
# the ModelFamily.__init__ probe, a private method, gets a span of its own
EXTRA = {("models", "ModelFamily", "_registration_check"): "models.registration"}


class SpanRecorder:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = []
        self.parent = []
        self.start = []
        self.end = []
        self.stack = [-1]

    def wrap(self, name, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def totals(self):
        """{name: [calls, self seconds]} over all spans."""
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        n = len(span_name)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = totals[self.names[span_name[i]]]
            entry[0] += 1
            entry[1] += end[i] - start[i] - child[i]
        return totals


def _wrap_class(recorder, short, cls):
    for attr, obj in list(vars(cls).items()):
        name = EXTRA.get((short, cls.__name__, attr))
        if name is None:
            if attr == "__init__":
                name = f"{short}.{cls.__name__}"
            elif attr.startswith("_") or not callable(getattr(obj, "__func__", obj)):
                continue
            else:
                name = f"{short}.{attr}"
        if isinstance(obj, (classmethod, staticmethod)):
            setattr(cls, attr, type(obj)(recorder.wrap(name, obj.__func__)))
        elif callable(obj) and not isinstance(obj, type):
            setattr(cls, attr, recorder.wrap(name, obj))


def install(recorder):
    """Wrap the layers in place; every namespace holding an original gets the wrapper."""
    import numpy.linalg

    replaced = {}
    for short in LAYERS:
        module = sys.modules[f"mixedqgt.{short}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(recorder, short, obj)
            elif isinstance(obj, types.FunctionType):
                replaced[id(obj)] = recorder.wrap(f"{short}.{attr}", obj)
    for attr in LINALG:
        original = getattr(numpy.linalg, attr)
        replaced[id(original)] = recorder.wrap(f"linalg.{attr}", original)
        setattr(numpy.linalg, attr, replaced[id(original)])
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "mixedqgt" and not mod_name.startswith("mixedqgt."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])


def main():
    totals_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TOTALS -- <mixedqgt arguments>")
    t0 = time.perf_counter()
    import mixedqgt.cli

    import_s = time.perf_counter() - t0
    recorder = SpanRecorder()
    install(recorder)
    code = mixedqgt.cli.main(argv)
    import json

    with open(totals_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "exit": code, "totals": recorder.totals()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
