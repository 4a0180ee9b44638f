"""Outside-in tracer for the thermion layer modules.

The program has no spans of its own yet, so the benchmark makes them from
outside: every public function defined in a layer module is replaced by a
timing wrapper at every module namespace that binds it (``from .linalg
import min_eig_hermitian`` copies the name into ``feshbach``,
``commutators`` and ``virial``, so patching ``thermion.linalg`` alone would
miss those call sites).  ``LiouvillianAction.matvec`` is wrapped on its
class.  The scipy entry points the layers reach are counted, not timed:
their time stays in the self time of the layer function that called them,
so ``linalg.min_eig_hermitian.self_s`` includes its ARPACK run.

Self time is a span's duration minus the durations of the wrapped spans it
called.  A layer's memory rise is the growth of the process's peak RSS
(``ru_maxrss``) while one of that layer's spans is innermost.  Spans are
kept in memory and written out once, when the traced run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

LAYERS = ("lattice", "operators", "flows", "commutators", "fgr", "feshbach",
          "virial", "dynamics", "linalg")

# (module, attribute, counter): library calls counted where the layers make
# them.  scipy's own internal bindings are left alone, so an svds call that
# runs eigsh inside scipy counts once.
LIBRARY = (("scipy.sparse.linalg", "eigsh", "arpack"),
           ("scipy.sparse.linalg", "svds", "arpack"),
           ("scipy.sparse.linalg", "factorized", "splu"),
           ("scipy.linalg", "eigh", "dense_eigh"))

MATVEC = "operators.LiouvillianAction.matvec"
ASSEMBLY = "operators.assemble_liouvillian"
# what an assembled Liouvillian depends on apart from the coupling
ASSEMBLY_KEY = ("e_max", "n_e", "u_max", "n_u", "n_max", "bound_energy",
                "beta", "a")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder for one process; install() patches the package."""

    def __init__(self):
        self.spans = []          # [name, parent span index, start, end]
        self.stack = []          # [span index, layer, time in child spans]
        self.calls = {}          # function name -> calls
        self.self_s = {}         # function name -> self seconds
        self.rss_rise_mb = dict.fromkeys(LAYERS, 0.0)
        self.library = {"arpack": 0, "splu": 0, "dense_eigh": 0}
        self.assembly_keys = set()
        self._rss = _maxrss_mb()

    def _charge_rss(self):
        now = _maxrss_mb()
        if self.stack and now > self._rss:
            self.rss_rise_mb[self.stack[-1][1]] += now - self._rss
        self._rss = now

    def _span(self, name: str, layer: str, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._charge_rss()
            index = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            record = [name, parent, time.perf_counter(), None]
            self.spans.append(record)
            frame = [index, layer, 0.0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._charge_rss()
                self.stack.pop()
                total = record[3] - record[2]
                self.calls[name] += 1
                self.self_s[name] += total - frame[2]
                if self.stack:
                    self.stack[-1][2] += total
        return wrapper

    def _counter(self, kind: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.library[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _keyed(self, fn):
        """Records which (grids, beta, a) each Liouvillian assembly is for."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            params = args[0] if args else kwargs["params"]
            self.assembly_keys.add(
                tuple(getattr(params, k) for k in ASSEMBLY_KEY))
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        import thermion.cli  # noqa: F401  (imports every layer module)

        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"thermion.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    inner = self._keyed(obj) if f"{layer}.{name}" == ASSEMBLY \
                        else obj
                    replace[id(obj)] = (obj, self._span(f"{layer}.{name}",
                                                        layer, inner))
        for modname, attr, kind in LIBRARY:
            obj = getattr(importlib.import_module(modname), attr)
            replace[id(obj)] = (obj, self._counter(kind, obj))

        namespaces = [m for n, m in sys.modules.items()
                      if n == "thermion" or n.startswith("thermion.")]
        namespaces += [importlib.import_module(m) for m, _, _ in LIBRARY]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

        cls = sys.modules["thermion.operators"].LiouvillianAction
        cls.matvec = self._span(MATVEC, "operators", cls.matvec)
        self._check_unpatched(namespaces, {id(o) for o, _ in replace.values()})

    @staticmethod
    def _check_unpatched(namespaces, originals):
        """A layer function held as a default argument or inside a
        module-level container would bypass the wrappers: refuse to trace
        rather than under-count."""
        for mod in namespaces:
            if not mod.__name__.startswith("thermion"):
                continue
            for name, obj in vars(mod).items():
                held = []
                if isinstance(obj, (list, tuple, set, frozenset)):
                    held = list(obj)
                elif isinstance(obj, dict):
                    held = list(obj.values())
                elif inspect.isfunction(obj):
                    held = list(obj.__defaults__ or ()) + list(
                        (obj.__kwdefaults__ or {}).values())
                for value in held:
                    if id(value) in originals:
                        raise RuntimeError(
                            f"{mod.__name__}.{name} holds an unwrapped "
                            f"layer function {value.__name__}")

    def summary(self) -> dict:
        layers = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            layers[layer] = {
                "calls": sum(self.calls[n] for n in names),
                "self_s": sum(self.self_s[n] for n in names),
                "rss_rise_mb": self.rss_rise_mb[layer]}
        return {"functions": {n: {"calls": self.calls[n],
                                  "self_s": self.self_s[n]}
                              for n in sorted(self.calls)},
                "layers": layers,
                "library": dict(self.library),
                "assembly_keys": len(self.assembly_keys),
                "spans": len(self.spans)}

    def write_spans(self, path: str):
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump([[n, p, s - origin, e - origin]
                       for n, p, s, e in self.spans], fh)
