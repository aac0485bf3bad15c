"""Spans and counters around the public functions of each ``skyline`` layer.

The traced run installs wrappers from here; the program itself is not
edited.  A span records its name, start, end and parent span.  A layer's
self time is its span time minus the time its direct child spans cover.
For calls and inclusive time only the outermost span of a name counts,
so recursion (``kernel_rhs`` on the conjugate shape, the recursive
``compositions_with_sum``) is not counted twice.  Counters are bumped at
the same boundaries.  Spans of the current round are kept in memory;
those of the first round are written out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# span name -> "module:attribute" targets; "Class.method" patches the class.
SPANS = {
    "cli.run": ["skyline.cli:run"],
    "kernel.verify": ["skyline.kernel:verify_expansion"],
    "kernel.lhs": ["skyline.kernel:kernel_lhs"],
    "kernel.rhs": ["skyline.kernel:kernel_rhs"],
    "polynomials.mul": ["skyline.polynomials:SparsePoly.__mul__"],
    "polynomials.add": ["skyline.polynomials:SparsePoly.__add__"],
    "polynomials.construct": ["skyline.polynomials:SparsePoly.__init__"],
    "demazure.pi_op": ["skyline.demazure:pi_op"],
    "correspondences.predicate": ["skyline.correspondences:main_theorem_predicate"],
    "correspondences.phi": ["skyline.correspondences:phi"],
    "correspondences.phi_inverse": ["skyline.correspondences:phi_inverse"],
    "correspondences.inverse_rsk": ["skyline.correspondences:inverse_rsk"],
    "fillings.insert": ["skyline.fillings:insert", "skyline.fillings:insert_with_chain"],
    "fillings.psi_inverse": ["skyline.fillings:psi_inverse"],
    "fillings.validate": ["skyline.fillings:validate"],
    "permutations.orbit_bruhat_leq": ["skyline.permutations:orbit_bruhat_leq"],
    "tableaux.enumerate_ssyt": ["skyline.tableaux:enumerate_ssyt"],
    "tableaux.key_tableau": ["skyline.tableaux:key_tableau"],
    "crystal.f_op": ["skyline.crystal:f_op"],
    "crystal.e_op": ["skyline.crystal:e_op"],
    "crystal.graph": ["skyline.crystal:crystal_graph"],
    "crystal.demazure": ["skyline.crystal:demazure_crystal"],
    "crystal.export": ["skyline.crystal:export_graph"],
    "shapes.compositions_with_sum": ["skyline.shapes:compositions_with_sum"],
}

# counter name -> (target, span name that must be open for the call to count)
COUNT_UNDER = {
    "fillings.psi_replays": ("skyline.fillings:psi", "fillings.psi_inverse"),
    "tableaux.ssyt_built": ("skyline.tableaux:SSYT.__post_init__", "tableaux.enumerate_ssyt"),
}

TRUNCATE = "skyline.polynomials:SparsePoly.truncate"


def _resolve(target: str):
    """(owner, attribute, current value) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    value = getattr(owner, attr, None) if owner is not None else None
    return owner, attr, value


def _patch(target: str, make_wrapper) -> bool:
    """Replace the target everywhere the package binds it; False if it is gone."""
    owner, attr, original = _resolve(target)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        for name, value in list(vars(owner).items()):
            if value is original:  # e.g. __rmul__ = __mul__
                setattr(owner, name, wrapper)
        return True
    for name, module in list(sys.modules.items()):
        if name == "skyline" or name.startswith("skyline."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return True


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.depth: list[int] = []
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.first_round: dict | None = None
        self.missing: list[str] = []

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.depth.append(0)
        return self.names.index(name)

    def span(self, name: str, fn):
        ix = self._index(name)
        names, parents, outer = self.span_name, self.span_parent, self.span_outer
        starts, ends, depth, stack = self.span_start, self.span_end, self.depth, self.stack
        clock = time.perf_counter

        def enter() -> int:
            sid = len(starts)
            names.append(ix)
            parents.append(stack[-1])
            outer.append(depth[ix] == 0)
            ends.append(0.0)
            depth[ix] += 1
            stack.append(sid)
            starts.append(clock())
            return sid

        def leave(sid: int):
            ends[sid] = clock()
            stack.pop()
            depth[ix] -= 1

        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, not its creation
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def steps():
                    while True:
                        sid = enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            leave(sid)
                        yield item

                return steps()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(sid)

        return wrapper

    def count_under(self, counter: str, span_name: str, fn):
        ix = self._index(span_name)
        depth, counters = self.depth, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[ix]:
                counters[counter] = counters.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def count_truncate(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(poly, *args, **kwargs):
            result = fn(poly, *args, **kwargs)
            counters["polynomials.truncate_in"] = (
                counters.get("polynomials.truncate_in", 0) + len(poly.terms))
            counters["polynomials.truncate_kept"] = (
                counters.get("polynomials.truncate_kept", 0) + len(result.terms))
            return result

        return wrapper

    def begin_round(self):
        for arr in (self.span_name, self.span_parent, self.span_outer,
                    self.span_start, self.span_end):
            del arr[:]
        self.counters.clear()
        self.round_start = time.perf_counter()

    def end_round(self, demazure_caches) -> dict:
        """Per-name [outer calls, outer inclusive s, self s], counters and cache state."""
        names, parents, outer = self.span_name, self.span_parent, self.span_outer
        starts, ends = self.span_start, self.span_end
        covered = [0.0] * len(starts)
        for sid, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[sid] - starts[sid]
        spans = {name: [0, 0.0, 0.0] for name in self.names}
        for sid, ix in enumerate(names):
            entry = spans[self.names[ix]]
            duration = ends[sid] - starts[sid]
            if outer[sid]:
                entry[0] += 1
                entry[1] += duration
            entry[2] += duration - covered[sid]
        infos = [cache.cache_info() for cache in demazure_caches]
        stats = {
            "spans": spans,
            "counters": dict(self.counters),
            "cache": {
                "hits": sum(i.hits for i in infos),
                "misses": sum(i.misses for i in infos),
                "entries": sum(i.currsize for i in infos),
            },
        }
        if self.first_round is None:
            self.first_round = {
                "names": list(self.names),
                "name": names.tolist(),
                "parent": parents.tolist(),
                "start_ns": [round((t - self.round_start) * 1e9) for t in starts],
                "end_ns": [round((t - self.round_start) * 1e9) for t in ends],
            }
        return stats

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.first_round}, fh)


def install() -> Tracer:
    """Wrap every target that the loaded package still has; list the rest."""
    tracer = Tracer()
    for name, targets in SPANS.items():
        for target in targets:
            if not _patch(target, functools.partial(tracer.span, name)):
                tracer.missing.append(target)
    for counter, (target, span_name) in COUNT_UNDER.items():
        if not _patch(target, functools.partial(tracer.count_under, counter, span_name)):
            tracer.missing.append(target)
    if not _patch(TRUNCATE, tracer.count_truncate):
        tracer.missing.append(TRUNCATE)
    if tracer.missing:
        print(f"trace: targets not found: {', '.join(tracer.missing)}", file=sys.stderr)
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(name):
    return lambda s, biwords: s["spans"].get(name, [0, 0.0, 0.0])[0]


def _incl(name):
    return lambda s, biwords: s["spans"].get(name, [0, 0.0, 0.0])[1]


def _self(name):
    return lambda s, biwords: s["spans"].get(name, [0, 0.0, 0.0])[2]


def _counter(name):
    return lambda s, biwords: s["counters"].get(name, 0)


# (metric, unit, better, value from one round's stats and the round's biword count)
PER_LAYER = [
    ("cli.self_s", "s", "lower", _self("cli.run")),
    ("kernel.lhs_s", "s", "lower", _incl("kernel.lhs")),
    ("kernel.rhs_s", "s", "lower", _incl("kernel.rhs")),
    ("kernel.compare_s", "s", "lower", _self("kernel.verify")),
    ("polynomials.mul_calls", "count", "lower", _calls("polynomials.mul")),
    ("polynomials.mul_s", "s", "lower", _incl("polynomials.mul")),
    ("polynomials.add_calls", "count", "lower", _calls("polynomials.add")),
    ("polynomials.add_s", "s", "lower", _incl("polynomials.add")),
    ("polynomials.construct_calls", "count", "lower", _calls("polynomials.construct")),
    ("polynomials.construct_s", "s", "lower", _incl("polynomials.construct")),
    ("polynomials.truncate_kept_ratio", "ratio", "higher",
     lambda s, b: _ratio(s["counters"].get("polynomials.truncate_kept", 0),
                         s["counters"].get("polynomials.truncate_in", 0))),
    ("demazure.pi_op_calls", "count", "lower", _calls("demazure.pi_op")),
    ("demazure.pi_op_s", "s", "lower", _incl("demazure.pi_op")),
    ("demazure.cache_hit_ratio", "ratio", "higher",
     lambda s, b: _ratio(s["cache"]["hits"], s["cache"]["hits"] + s["cache"]["misses"])),
    ("demazure.cache_entries", "count", "lower", lambda s, b: s["cache"]["entries"]),
    ("correspondences.phi_calls", "count", "lower", _calls("correspondences.phi")),
    ("correspondences.phi_s", "s", "lower", _incl("correspondences.phi")),
    ("correspondences.predicate_s", "s", "lower", _incl("correspondences.predicate")),
    ("correspondences.phi_inverse_s", "s", "lower", _incl("correspondences.phi_inverse")),
    ("correspondences.inverse_rsk_s", "s", "lower", _incl("correspondences.inverse_rsk")),
    ("fillings.insert_calls", "count", "lower", _calls("fillings.insert")),
    ("fillings.insert_s", "s", "lower", _incl("fillings.insert")),
    ("fillings.inserts_per_biword", "inserts/biword", "lower",
     lambda s, biwords: _ratio(s["spans"].get("fillings.insert", [0])[0], biwords)),
    ("fillings.psi_inverse_calls", "count", "lower", _calls("fillings.psi_inverse")),
    ("fillings.psi_inverse_s", "s", "lower", _incl("fillings.psi_inverse")),
    ("fillings.psi_replays_per_inverse", "replays/tableau", "lower",
     lambda s, b: _ratio(s["counters"].get("fillings.psi_replays", 0),
                         s["spans"].get("fillings.psi_inverse", [0])[0])),
    ("fillings.validate_s", "s", "lower", _incl("fillings.validate")),
    ("permutations.orbit_bruhat_leq_calls", "count", "lower",
     _calls("permutations.orbit_bruhat_leq")),
    ("permutations.orbit_bruhat_leq_s", "s", "lower", _incl("permutations.orbit_bruhat_leq")),
    ("tableaux.enumerate_ssyt_calls", "count", "lower", _calls("tableaux.enumerate_ssyt")),
    ("tableaux.enumerate_ssyt_s", "s", "lower", _incl("tableaux.enumerate_ssyt")),
    ("tableaux.ssyt_built", "count", "lower", _counter("tableaux.ssyt_built")),
    ("tableaux.key_tableau_calls", "count", "lower", _calls("tableaux.key_tableau")),
    ("tableaux.key_tableau_s", "s", "lower", _incl("tableaux.key_tableau")),
    ("crystal.f_op_calls", "count", "lower", _calls("crystal.f_op")),
    ("crystal.f_op_s", "s", "lower", _incl("crystal.f_op")),
    ("crystal.e_op_calls", "count", "lower", _calls("crystal.e_op")),
    ("crystal.e_op_s", "s", "lower", _incl("crystal.e_op")),
    ("crystal.graph_s", "s", "lower", _incl("crystal.graph")),
    ("crystal.demazure_s", "s", "lower", _incl("crystal.demazure")),
    ("crystal.export_s", "s", "lower", _incl("crystal.export")),
    ("shapes.compositions_with_sum_s", "s", "lower", _incl("shapes.compositions_with_sum")),
]
