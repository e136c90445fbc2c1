"""The benchmark's workloads: seeded inputs, the timed call, reference checks.

Every workload runs in passes.  A pass is a fixed batch of work, the same
classes of input on every run; the run seed draws the vertex labels, the
order, and which relabeled copy a repeat gets.  Random inputs differ up
to 200-fold in cost (2 ms to 360 ms per facering-qq op on a 2-vCPU VM), so
a batch drawn afresh per seed would spread run times far beyond the
bounds; a fixed class mix keeps the work per pass equal across seeds while
the labels still vary.

Complexes are given as ``(m, facets)`` with 1-based vertex tuples.  The
helpers below build them, their Alexander duals and Bier spheres from the
standard library alone, so inputs and references do not depend on the code
under test.  The program is reached through module attributes (``tor.x``,
not ``from ... import x``) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import tempfile

MIX_SEED = "bierlab-mix-1"


# ---------------------------------------------------------------------------
# complexes as plain data


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << (v - 1)
    return out


def _verts(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _maximal(masks) -> list[int]:
    uniq = set(masks)
    return sorted(a for a in uniq if not any(a != b and a & b == a for b in uniq))


def random_facets(rng: random.Random, m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """A random complex on [m]: the faces generated by one to six random
    subsets; never the full simplex, never {empty set}; ghosts allowed."""
    full = (1 << m) - 1
    while True:
        gens = [rng.getrandbits(m) for _ in range(rng.randint(1, 6))]
        facets = _maximal(g for g in gens if g)
        if facets and facets != [full]:
            return m, tuple(_verts(f) for f in facets)


def relabel(cx, perm: list[int]):
    """Apply ``v -> perm[v - 1]`` to every vertex."""
    m, facets = cx
    return m, tuple(sorted(tuple(sorted(perm[v - 1] for v in f)) for f in facets))


def random_relabel(rng: random.Random, cx):
    perm = list(range(1, cx[0] + 1))
    rng.shuffle(perm)
    return relabel(cx, perm)


def face_masks(cx) -> set[int]:
    m, facets = cx
    out = set()
    for f in facets:
        fm = _mask(f)
        sub = fm
        while True:
            out.add(sub)
            if not sub:
                break
            sub = (sub - 1) & fm
    return out


def dual_face_masks(cx) -> set[int]:
    """Faces of the Alexander dual: complements of the non-faces."""
    m = cx[0]
    faces = face_masks(cx)
    full = (1 << m) - 1
    return {full ^ s for s in range(1 << m) if s not in faces}


def bier_sphere(cx):
    """Ghost-free Bier sphere: facets A + C' with A a face, C a dual face,
    A and C disjoint and |A| + |C| = m - 1; vertex i' is m + i before the
    unused vertices are dropped."""
    m = cx[0]
    faces = face_masks(cx)
    dual = dual_face_masks(cx)
    full = (1 << m) - 1
    facets = set()
    for a in faces:
        rest = full ^ a
        for i in range(m):
            b = 1 << i
            if rest & b and (rest ^ b) in dual:
                facets.add(a | ((rest ^ b) << m))
    used = 0
    for f in facets:
        used |= f
    new_label = {v: i + 1 for i, v in enumerate(_verts(used))}
    return len(new_label), tuple(sorted(tuple(new_label[v] for v in _verts(f)) for f in facets))


def _is_boundary_simplex(m: int, faces: set[int]) -> bool:
    return len(faces) == (1 << m) - 1 and ((1 << m) - 1) not in faces


def _is_points(faces: set[int]) -> bool:
    return len(faces) > 1 and all(f.bit_count() <= 1 for f in faces)


def golod_prediction(cx) -> tuple[bool, bool]:
    """(Golod, minimally non-Golod) of the Bier sphere, as the golod suite
    predicts it: Golod iff K or its dual is the boundary of the simplex,
    minimally non-Golod iff K or its dual is a set of points."""
    m = cx[0]
    faces, dual = face_masks(cx), dual_face_masks(cx)
    golod = _is_boundary_simplex(m, faces) or _is_boundary_simplex(m, dual)
    return golod, _is_points(faces) or _is_points(dual)


def iso_invariant(cx) -> tuple:
    """Facet sizes and vertex degrees, blind to the labels and to ghost
    vertices: isomorphic complexes always agree on it, some others too."""
    degree: dict[int, int] = {}
    for f in cx[1]:
        for v in f:
            degree[v] = degree.get(v, 0) + 1
    return (
        tuple(sorted(len(f) for f in cx[1])),
        tuple(sorted(degree.values())),
        tuple(sorted(tuple(sorted(degree[v] for v in f)) for f in cx[1])),
    )


def complex_json(cx) -> dict:
    return {"m": cx[0], "facets": [list(f) for f in cx[1]]}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: one item per op unless ``ops`` says otherwise."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def batch(self, index: int) -> list:
        raise NotImplementedError

    def reset(self):
        """Called before every pass, outside the timed interval."""

    def call(self, item):
        raise NotImplementedError

    def output(self, item, returned):
        return returned

    def ops(self, item) -> int:
        return 1

    def failures(self, item, output) -> int:
        raise NotImplementedError

    def _rng(self, index: int | str) -> random.Random:
        return random.Random(f"{self.seed}:{index}")


class Failure:
    """An op that raised; always counts as failed."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Failure({self.text!r})"


class FaceRing(Workload):
    """bier_sphere -> drop_ghosts -> hochster_betti -> golod_summary on
    random complexes on [4] and [5]."""

    # complexes per pass on [4] and on [5]; those on [4] cost ~1/20 as much,
    # so with half of each the median op would sit in the gap between them
    COUNTS = {4: 8, 5: 24}

    def __init__(self, seed, workdir, p: int):
        super().__init__(seed, workdir)
        from bierlab import complexes, duality, tor

        self.complexes, self.duality, self.tor = complexes, duality, tor
        self.field = tor.FieldTag(p)
        rng = random.Random(MIX_SEED)
        self.mix = [random_facets(rng, m) for m, n in self.COUNTS.items() for _ in range(n)]
        self._betti_ref: dict[int, dict] = {}

    def batch(self, index):
        rng = self._rng(index)
        items = []
        for slot, base in enumerate(self.mix):
            cx = random_relabel(rng, base)
            items.append((slot, cx, self.complexes.make_complex(*cx)))
        rng.shuffle(items)
        return items

    def call(self, item):
        sphere = self.complexes.drop_ghosts(self.duality.bier_sphere(item[2]))
        betti = self.tor.hochster_betti(sphere, self.field)
        return betti.table, self.tor.golod_summary(sphere, self.field)

    def reference_betti(self, slot: int) -> dict:
        """Koszul-oracle Betti table of the slot's Bier sphere; Betti
        numbers do not depend on the labels, so one per slot serves all."""
        ref = self._betti_ref.get(slot)
        if ref is None:
            n, facets = bier_sphere(self.mix[slot])
            sphere = self.complexes.make_complex(n, facets)
            ref = self.tor.koszul_betti_oracle(sphere, self.field).table
            self._betti_ref[slot] = ref
        return ref

    def failures(self, item, output):
        if isinstance(output, Failure):
            return 1
        slot, cx, _k = item
        table, verdict = output
        ok = table == self.reference_betti(slot) and tuple(verdict) == golod_prediction(cx)
        return 0 if ok else 1


class CensusCanon(Workload):
    """census.verify('dehn-sommerville') from cold caches; the op count is
    the report's sphere classes.  Exhaustive, so the seed is unused."""

    SUITE = "dehn-sommerville"
    # the seed commit's report and class counts
    SPHERE_CLASSES = 205
    CLASS_COUNTS = {3: 8, 4: 28, 5: 208}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from bierlab import census

        self.census = census
        self._class_counts = None

    def batch(self, index):
        return [self.SUITE]

    def reset(self):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "bierlab" or name.startswith("bierlab.")):
                continue
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()

    def call(self, item):
        return self.census.verify(item).to_dict()

    def ops(self, item):
        return self.SPHERE_CLASSES

    def class_counts(self) -> dict:
        if self._class_counts is None:
            self._class_counts = {
                m: len(self.census.enumerate_complexes(m, up_to_iso=True, include_simplex=False))
                for m in self.CLASS_COUNTS
            }
        return self._class_counts

    def failures(self, item, output):
        n = self.SPHERE_CLASSES
        if isinstance(output, Failure):
            return n
        expected = {"instances": n, "passed": n, "counterexamples": [],
                    "details": {"sphere_classes": n}}
        got = {key: output.get(key) for key in expected}
        if got != expected or self.class_counts() != self.CLASS_COUNTS:
            return n
        return 0


# (kind, source, m), where source 'base' is the random complex and 'sphere'
# its Bier sphere.  Twelve heavy requests (cubical, and golod/betti on Bier
# spheres, at m = 5) among ~80 put op_p90_ms inside the heavy group, and
# enough of them share each pass that one relabeling's luck does not set
# the pass time.
_CLI_FRESH = (
    [(kind, "base", m) for m in (3, 4, 5) for kind in ("bier", "classify") * 4]
    + [("cubical", "base", m) for m in (3, 3, 4, 4, 4) + (5,) * 8]
    + [(kind, source, m) for m in (3, 4, 5) for kind in ("faces", "betti", "golod")
       for source in ("base", "sphere") * 2]
)
# Repeats per pass.  A betti payload does not depend on the labels, so its
# repeats come under a new labeling and read the record cached under the
# canonical key.  A golod payload carries witnesses in the input's own
# labels, and the cache serves them to isomorphic inputs unchanged (ROADMAP
# item 4), so golod repeats keep their labels; the relabeled case runs in
# CliQueries.known_defects instead, outside the gated count.
_CLI_REPEATS = {"betti": (4, True), "golod": (4, False)}
# ROADMAP item 4's reproduction: the 5-cycle, then an isomorphic relabeling
_C5 = (5, ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5)))
_C5_RELABELED = (5, ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5)))
_CLI_FLAGS = {"cubical": ["--boundary", "--homology", "--gw"]}


class CliQueries(Workload):
    """In-process ``bierlab.cli.run`` requests against a result cache that
    starts empty each pass; a quarter of the betti/golod requests repeat an
    earlier input, so cache reads sit beside writes."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from bierlab import cli

        self.cli = cli
        rng = random.Random(MIX_SEED)
        # golod inputs pairwise non-isomorphic: an isomorphic one would read
        # the other's record, witnesses in the wrong labels (known_defects)
        seen = {iso_invariant(_C5)}
        self.mix = []
        for kind, source, m in _CLI_FRESH:
            for _ in range(1000):
                cx = random_facets(rng, m)
                if kind != "golod":
                    break
                inv = iso_invariant(bier_sphere(cx) if source == "sphere" else cx)
                if inv not in seen:
                    seen.add(inv)
                    break
            else:
                raise RuntimeError(f"no new golod input class on [{m}]")
            self.mix.append((kind, source, cx))
        self.mix.append(("golod", "literal", _C5))
        self.repeats = []  # (mix index repeated, whether the repeat is relabeled)
        for kind, (count, relabeled) in _CLI_REPEATS.items():
            slots = [i for i, (k, s, _) in enumerate(self.mix) if k == kind and s != "literal"]
            self.repeats += [(i, relabeled) for i in rng.sample(slots, count)]
        self._dirs = itertools.count()
        self.cache_dir = None

    def _new_dir(self, prefix):
        return tempfile.mkdtemp(prefix=f"{prefix}{next(self._dirs)}-", dir=self.workdir)

    def _input(self, rng, slot):
        _kind, source, base = self.mix[slot]
        if source == "literal":
            return base
        cx = random_relabel(rng, base)
        return bier_sphere(cx) if source == "sphere" else cx

    def batch(self, index):
        rng = self._rng(index)
        inputs = [(kind, self._input(rng, slot)) for slot, (kind, _s, _b) in enumerate(self.mix)]
        order = list(range(len(inputs)))
        rng.shuffle(order)
        for slot, relabeled in self.repeats:
            kind, cx = inputs[slot]
            inputs.append((kind, random_relabel(rng, cx) if relabeled else cx))
            after = order.index(slot) + 1
            order.insert(rng.randint(after, len(order)), len(inputs) - 1)
        folder = self._new_dir("pass")
        items = []
        for n, j in enumerate(order):
            kind, cx = inputs[j]
            path = os.path.join(folder, f"in{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(complex_json(cx), fh)
            argv = [kind, "--in", path] + _CLI_FLAGS.get(kind, [])
            items.append((j, argv, os.path.join(folder, f"out{n}.json")))
        return items

    def known_defects(self) -> dict:
        """ROADMAP item 4, measured and reported beside the result: golod on
        an input, then on an isomorphic relabeling of it from the cache,
        compared with a --no-cache run of the relabeled input.  Cases: the
        5-cycle pair and a relabeling of each golod input that the mix
        repeats.  Not timed, and not in the gated op count."""
        rng = self._rng("known-defects")
        pairs = [(_C5, _C5_RELABELED)]
        for slot, _relabeled in self.repeats:
            if self.mix[slot][0] == "golod":
                cx = self._input(rng, slot)
                pairs.append((cx, random_relabel(rng, cx)))
        folder = self._new_dir("defects")
        cache_dir = self._new_dir("defects-cache")
        failed = []
        for n, (first, second) in enumerate(pairs):
            outputs = []
            for tag, cx, flags in (("a", first, ["--cache-dir", cache_dir]),
                                   ("b", second, ["--cache-dir", cache_dir]),
                                   ("ref", second, ["--no-cache"])):
                path = os.path.join(folder, f"in{n}{tag}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(complex_json(cx), fh)
                out = os.path.join(folder, f"out{n}{tag}.json")
                outputs.append(self._read(self.cli.run(["golod", "--in", path, "--out", out]
                                                       + flags), out))
            if outputs[1] != outputs[2]:
                failed.append(complex_json(second)["facets"])
        return {"cache_relabeled_golod": {"attempted": len(pairs), "failed": len(failed),
                                          "failed_inputs": failed}}

    def reset(self):
        self.cache_dir = self._new_dir("cache")

    def call(self, item):
        _slot, argv, out = item
        return self.cli.run(argv + ["--out", out, "--cache-dir", self.cache_dir])

    @staticmethod
    def _read(returned, out):
        with open(out, encoding="utf-8") as fh:
            return returned, json.load(fh)

    def output(self, item, returned):
        if isinstance(returned, Failure):
            return returned
        return self._read(returned, item[2])

    def failures(self, item, output):
        if isinstance(output, Failure):
            return 1
        _slot, argv, out = item
        ref_out = out[: -len(".json")] + "-ref.json"
        try:
            ref = self._read(self.cli.run(argv + ["--out", ref_out, "--no-cache"]), ref_out)
        except Exception:  # noqa: BLE001 - a reference that cannot be made fails the op
            return 1
        return 0 if output == ref else 1


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "facering-qq":
        return FaceRing(seed, workdir, 0)
    if name == "facering-gf2":
        return FaceRing(seed, workdir, 2)
    if name == "census-canon":
        return CensusCanon(seed, workdir)
    if name == "cli-queries":
        return CliQueries(seed, workdir)
    raise KeyError(name)


NAMES = ("facering-qq", "facering-gf2", "census-canon", "cli-queries")
