"""Workload definitions: inputs from a seed, the timed body, and the output check.

Each workload is a class with three steps. ``setup(seed)`` builds the inputs
(it runs before the timed body and counts towards set-up time). ``body(inp)``
is the timed region; it looks up every program function through its module
at call time, so the tracer's wrappers are the ones called. ``check(inp, out)``
runs after the body, outside the timing, and returns the number of
operations attempted, how many of them failed, the per-operation times and a
digest of the outputs that the runner compares across samples.

Only the ``factor`` workload draws its inputs from the seed. The ``verify``
instances are fixed by their command line, and the ``oracle`` input is a fixed
prefix of the canonical enumeration; for them the seed changes nothing.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import time

import incalg.classify as classify
import incalg.cli as cli
import incalg.errors as errors
import incalg.harness.families as families
import incalg.harness.gl as gl
import incalg.harness.kernels as kernels
import incalg.linmaps as linmaps
from incalg.field import GF
from incalg.poset import chain, poset_from_relations

# Explicit so the work split does not depend on os.cpu_count(); 2 matches the
# default on the 2-core machine the ROADMAP baseline was taken on.
WORKERS = 2
BACKEND = "numpy"


def gl_order(dim, q):
    """|GL(dim, q)|, computed here so the check does not trust the program."""
    total = 1
    for i in range(dim):
        total *= q ** dim - q ** i
    return total


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def codes_of(phi):
    """Column codes of a map, code = sum_j coeff_j q^j, as the kernels use."""
    q = phi.field.q
    return tuple(sum(int(v) * q ** j for j, v in enumerate(col))
                 for col in phi.cols)


def vee():
    return poset_from_relations([1, 2, 3], [(1, 2), (1, 3)])


class Verify:
    """One ``incalg verify`` invocation through ``incalg.cli.main``; the
    invocation is the operation."""

    def __init__(self, argv, dim, q, preservers):
        self.argv = argv
        self.gl_order = gl_order(dim, q)
        self.preservers = preservers

    def setup(self, seed):
        return self.argv + ["--workers", str(WORKERS), "--backend", BACKEND]

    def body(self, argv):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue(), time.perf_counter() - t0

    def check(self, argv, out):
        rc, text, op_s = out
        try:
            rep = json.loads(text)
        except ValueError:
            return 1, 1, [op_s * 1e3], None, ["verify printed no JSON"]
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if rep.get("match") is not True:
            problems.append("match is not true")
        if rep.get("maps_swept") != self.gl_order:
            problems.append(f"maps_swept {rep.get('maps_swept')} != "
                            f"{self.gl_order}")
        if rep.get("preserver_count") != self.preservers:
            problems.append(f"preserver_count {rep.get('preserver_count')} "
                            f"!= {self.preservers}")
        if not all(s.get("ok") for s in rep.get("samples", [])):
            problems.append("a spot-check factorization failed")
        rep.pop("elapsed_s", None)
        return 1, int(bool(problems)), [op_s * 1e3], digest(rep), problems


class Factor:
    """Family build for the V poset over GF(5), then ``classify_preserver``
    on seeded family members mixed with seeded random bijective maps.

    Accepting a member takes 2.5 to 3.5 ms and rejecting a random map about
    0.3 ms. The counts are fixed, so every seed has the same mix; with a
    fifth of the operations being rejections, the 95th percentile measures
    accepted maps, and rejections show in wall time.
    """

    K = 2
    FAMILY_SIZE = 800
    MEMBERS = 200
    RANDOM = 50

    def setup(self, seed):
        P, F = vee(), GF(5)
        rng = random.Random(seed)
        members = rng.sample(range(self.FAMILY_SIZE), self.MEMBERS)
        randoms = []
        while len(randoms) < self.RANDOM:
            cols = [[rng.randrange(F.q) for _ in range(P.dim)]
                    for _ in range(P.dim)]
            phi = linmaps.LinMap(P, F, cols)
            if linmaps.is_bijective(phi):
                randoms.append(phi)
        ops = [("member", i) for i in members] + [("random", m) for m in randoms]
        rng.shuffle(ops)
        return P, F, ops

    def body(self, inp):
        P, F, ops = inp
        fam = families.jordan_like_maps(P, F)
        maps = list(fam.values())
        results, times = [], []
        for kind, x in ops:
            phi = maps[x] if kind == "member" else x
            t0 = time.perf_counter()
            try:
                verdict = classify.classify_preserver(phi, self.K).regime
            except errors.IncalgError as e:
                verdict = type(e).__name__
            times.append(time.perf_counter() - t0)
            results.append((phi, verdict))
        return fam, results, times

    def check(self, inp, out):
        fam, results, times = out
        problems = []
        if len(fam) != self.FAMILY_SIZE:
            problems.append(f"family has {len(fam)} maps, expected "
                            f"{self.FAMILY_SIZE}")
        failed = 0
        record = []
        for (kind, _), (phi, verdict) in zip(inp[2], results):
            in_family = phi.cols in fam
            accepted = verdict == "char-ne-2"
            if kind == "member":
                ok = in_family and accepted
            else:
                ok = (accepted if in_family
                      else verdict == "NotIdempotentPreserver")
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{kind} map {list(phi.cols)} gave {verdict}")
            record.append([kind, [list(c) for c in phi.cols], verdict])
        return (len(results), failed, [t * 1e3 for t in times],
                digest(record), problems)


class Oracle:
    """The independent oracle on a fixed prefix of ``enumerate_gl``: every map
    goes through ``is_k_potent_preserver``; the hits must equal the sweep's
    preservers inside the same prefix, in the same order."""

    K = 3
    PREFIX = 40_000
    HITS = 8

    def setup(self, seed):
        return chain(2), GF(5)

    def body(self, inp):
        P, F = inp
        hits, times = [], []
        n = 0
        phi = None
        for phi in itertools.islice(gl.enumerate_gl(P, F), self.PREFIX):
            t0 = time.perf_counter()
            ok = linmaps.is_k_potent_preserver(phi, self.K)
            times.append(time.perf_counter() - t0)
            n += 1
            if ok:
                hits.append(codes_of(phi))
        return n, codes_of(phi), hits, times

    def check(self, inp, out):
        P, F = inp
        n, last, hits, times = out
        res = kernels.sweep_gl(P, F, self.K, workers=WORKERS, backend=BACKEND)
        ref = [tuple(int(v) for v in row) for row in res.preservers]
        problems = []
        if ref != sorted(ref):
            problems.append("sweep preservers are not in enumeration order")
        ref = [r for r in ref if r <= last]
        if n != self.PREFIX:
            problems.append(f"enumerated {n} maps, expected {self.PREFIX}")
        failed = len(set(hits) ^ set(ref))
        if not failed and hits != ref:
            failed = 1
            problems.append("oracle hits are out of order")
        if failed:
            problems.append(f"{failed} verdicts differ from the sweep")
        if len(hits) != self.HITS:
            problems.append(f"{len(hits)} hits, expected {self.HITS}")
        return n, failed, [t * 1e3 for t in times], digest(hits), problems


WORKLOADS = {
    "verify-kpotent-c2-gf7": Verify(
        ["verify", "--poset", "chain:2", "--field", "7",
         "--theorem", "kpotent", "--k", "4"],
        dim=3, q=7, preservers=252),
    "verify-z2-vee-gf2": Verify(
        ["verify", "--poset", "3\n1<2\n1<3", "--field", "2",
         "--theorem", "z2"],
        dim=5, q=2, preservers=128),
    "factor-vee-gf5": Factor(),
    "oracle-c2-gf5": Oracle(),
}
