"""One benchmark sample in a fresh interpreter.

Usage: python3 sample.py WORKLOAD SEED MODE SPAWN_T

MODE is ``probe`` (set up only), ``plain`` (set up, run and check the body)
or ``traced`` (the same with every layer boundary wrapped). SPAWN_T is the
parent's CLOCK_MONOTONIC reading just before it started this process, so
set-up time covers interpreter start, imports and input generation. Prints
one JSON object on its last line of standard output.
"""

import importlib.util
import json
import os
import pathlib
import platform
import resource
import sys
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def machine_facts():
    import numpy
    import workloads

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": workloads.BACKEND,
        "workers": workloads.WORKERS,
        "numba": ("absent" if importlib.util.find_spec("numba") is None
                  else "installed, disabled by INCALG_NO_NUMBA"),
    }


def main():
    name, seed, mode, spawn_t = sys.argv[1], int(sys.argv[2]), sys.argv[3], \
        float(sys.argv[4])
    import incalg
    import tracer
    import workloads

    if not pathlib.Path(incalg.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"incalg was imported from {incalg.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[name]
    inp = wl.setup(seed)
    setup_s = time.monotonic() - spawn_t
    out = {"setup_s": setup_s, "machine": machine_facts()}
    if mode == "probe":
        print(json.dumps(out))
        return

    tr = None
    if mode == "traced":
        tr = tracer.Tracer()
        tracer.install(tr)
    t0 = time.perf_counter()
    try:
        result = wl.body(inp)
    finally:
        body_s = time.perf_counter() - t0
        restored = tr.restore() if tr is not None else True
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, op_ms, dig, problems = wl.check(inp, result)
    if not restored:
        problems.append("a wrapped name was not restored")
    if tr is not None:
        out["trace"] = tracer.summary(tr)
        n_maps = out["trace"]["counts"]["kernels.sweep_gl.n_maps"]
        expected = getattr(wl, "gl_order", None)
        if expected is not None and n_maps != expected:
            problems.append(f"traced sweep_gl covered {n_maps} maps, "
                            f"expected {expected}")
    out.update(wall_s=body_s, attempted=attempted, failed=failed, op_ms=op_ms,
               digest=dig, problems=problems)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
