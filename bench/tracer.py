"""Per-layer spans and counters, recorded by wrapping the public functions of
each layer at the names their callers look up.

A function is wrapped in every loaded ``incalg`` module whose attribute of
that name is the original object, so ``incalg.harness.verify.sweep_gl`` and
``incalg.harness.kernels.sweep_gl`` both go through the wrapper. The
benchmark's own bodies call the program through module attributes, so they
reach the wrappers too. ``restore`` puts every original back and reports
whether each name again holds its original. No source file is changed.

Spans nest on one stack (the samples are single-threaded). Per layer the
tracer keeps the inclusive time, the self time (inclusive minus the time of
wrapped calls made inside it), the call count, and the time per caller edge.
"""

import hashlib
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.stack = []
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.edges = defaultdict(float)
        self.root_s = 0.0
        self.sweep_digest = hashlib.sha256()
        self._patches = []

    # --- spans ---

    def _enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, t0, child = self.stack.pop()
        dur = time.perf_counter() - t0
        self.inclusive[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            self.edges[f"{parent[0]} > {name}"] += dur
        else:
            self.root_s += dur
            self.edges[f"(body) > {name}"] += dur

    def timed(self, name, on_result=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit()
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        return make

    def timed_gen(self, name, count_key):
        """Span each resumption of a generator; count the items it yields."""
        def make(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    self.counts[count_key] += 1
                    yield item
            return wrapper
        return make

    def counted(self, key):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # --- patching ---

    def patch(self, module_name, attr, make, only_in=None):
        """Wrap ``module_name.attr`` wherever a module holds that object.

        ``only_in`` limits the patch to the named modules, for counters that
        belong to one caller.
        """
        orig = getattr(sys.modules[module_name], attr)
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if only_in is not None and name not in only_in:
                continue
            if only_in is None and not name.startswith("incalg"):
                continue
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, orig))

    def restore(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        return all(getattr(mod, attr) is orig
                   for mod, attr, orig in self._patches)


def install(tr):
    """Wrap every layer boundary the benchmark reports."""
    def on_sweep(res):
        tr.counts["kernels.sweep_gl.n_maps"] += res.n_maps
        tr.counts["kernels.sweep_gl.preservers"] += len(res.preservers)
        tr.counts["kernels.sweep_gl.lie_maps"] += len(res.lie_maps)
        tr.sweep_digest.update(res.preservers.tobytes())
        tr.sweep_digest.update(res.lie_maps.tobytes())

    def on_potents(res):
        tr.counts["potents.npot"] += len(res[0])

    def on_jordan_like(res):
        tr.counts["families.distinct"] += len(res)

    def on_check(res):
        tr.counts["linmaps.is_k_potent_preserver.potents_checked"] += res.checked

    timed = [
        ("incalg.harness.kernels", "sweep_gl", "kernels.sweep_gl", on_sweep),
        ("incalg.harness.kernels", "build_sweep_tables",
         "kernels.build_sweep_tables", None),
        ("incalg.potents", "potent_code_tables", "potents.potent_code_tables",
         on_potents),
        ("incalg.harness.families", "jordan_like_maps",
         "families.jordan_like_maps", on_jordan_like),
        ("incalg.harness.families", "scaled_maps", "families.scaled_maps", None),
        ("incalg.harness.families", "bijective_shifts",
         "families.bijective_shifts", None),
        ("incalg.classify", "classify_preserver", "classify.classify_preserver",
         None),
        ("incalg.classify", "jordan_decompose", "classify.jordan_decompose",
         None),
        ("incalg.classify", "z2_decompose", "classify.z2_decompose", None),
        ("incalg.classify", "scalar_split", "classify.scalar_split", None),
        ("incalg.linmaps", "is_k_potent_preserver",
         "linmaps.is_k_potent_preserver", on_check),
        ("incalg.harness.verify", "verify_theorem", "verify.verify_theorem",
         None),
        ("incalg.cli", "main", "cli.main", None),
    ]
    for module, attr, name, on_result in timed:
        tr.patch(module, attr, tr.timed(name, on_result))
    tr.patch("incalg.harness.gl", "enumerate_gl",
             tr.timed_gen("gl.enumerate_gl", "gl.enumerate_gl.maps"))
    tr.patch("incalg.algebra", "convolve", tr.counted("algebra.convolve.calls"))
    tr.patch("incalg.linmaps", "compose", tr.counted("families.compose.calls"),
             only_in=("incalg.harness.families",))


# Counts that must repeat exactly between traced samples of the same inputs.
EXACT_COUNTS = (
    "kernels.sweep_gl.n_maps", "kernels.sweep_gl.preservers",
    "kernels.sweep_gl.lie_maps", "potents.npot", "families.compose.calls",
    "families.distinct", "linmaps.is_k_potent_preserver.potents_checked",
    "algebra.convolve.calls", "gl.enumerate_gl.maps",
)

SPANS = (
    "kernels.sweep_gl", "kernels.build_sweep_tables",
    "potents.potent_code_tables", "families.jordan_like_maps",
    "families.scaled_maps", "families.bijective_shifts",
    "classify.classify_preserver", "classify.jordan_decompose",
    "classify.z2_decompose", "classify.scalar_split",
    "linmaps.is_k_potent_preserver", "gl.enumerate_gl",
    "verify.verify_theorem", "cli.main",
)


def summary(tr):
    """Raw per-layer figures of one traced sample."""
    calls = {f"{name}.calls": tr.calls[name] for name in SPANS}
    counts = {key: tr.counts[key] for key in EXACT_COUNTS}
    return {
        "s": {name: tr.inclusive[name] for name in SPANS},
        "self_s": {name: tr.self_time[name] for name in SPANS},
        "counts": {**counts, **calls},
        "root_s": tr.root_s,
        "edges": dict(tr.edges),
        "sweep_digest": tr.sweep_digest.hexdigest(),
    }
