"""Per-layer tracing of one orthoball CLI op, done entirely from outside the package.

Run as::

    python3 bench/tracer.py SPANS_PATH OP_ID CLI_ARG...

It imports ``orthoball.cli``, wraps the public functions of each layer module
(and the public methods of the classes they define) in every ``orthoball``
namespace that bound them, runs ``orthoball.cli.main(CLI_ARG...)`` and, when
``main`` returns, writes the spans it kept in memory to SPANS_PATH.

A span is recorded only where a call crosses from one layer into another, so
the many calls a layer makes into itself cost a counter increment and no
clock read.  ``layer_metrics`` reads a spans file back and derives per-layer
counts and self times (span duration minus the durations of its child spans).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

LAYERS = (
    "polynomials",
    "exact_gamma",
    "jacobi",
    "harmonics",
    "measures",
    "bases",
    "operators",
    "verify",
    "cli",
)

# Operators of the polynomial classes: they are how every layer does its
# arithmetic, so they count as the public surface of ``polynomials``.
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__neg__", "__eq__")

# Private functions that still get a span of their own, even when called from
# inside their layer: the CLI's output write.
_FORCED = {"cli._write"}

# Functions whose per-call term-pair count is summed: the two products that
# run the bilinear double loop (inner_mass delegates to both).
_TERM_PAIR_FUNCS = {"measures.inner_ball", "measures.inner_sphere"}

# Cached basis builders whose distinct argument tuples are recorded.
_DISTINCT_FUNCS = {"harmonics.harmonic_basis", "bases.classical_basis", "bases.mass_basis"}

_ARRAYS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    """Spans and counters for one process; wrappers close over its lists."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.spans = {key: array(code) for key, code in _ARRAYS}
        self.stack: list[tuple[int, int]] = [(-1, -1)]  # (span index, layer index)
        self.term_pairs = 0
        self.distinct: dict[str, dict] = {name: {} for name in _DISTINCT_FUNCS}

    def wrap(self, fn, qualname: str):
        layer = LAYERS.index(qualname.split(".", 1)[0])
        nid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.calls.append(0)
        target = self._hooked(fn, qualname)
        forced = qualname in _FORCED
        calls, stack, clock = self.calls, self.stack, time.perf_counter
        s_name, s_parent = self.spans["name"], self.spans["parent"]
        s_start, s_end = self.spans["start"], self.spans["end"]

        def traced(*args, **kwargs):
            calls[nid] += 1
            top = stack[-1]
            if top[1] == layer and not forced:
                return target(*args, **kwargs)
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(top[0])
            s_end.append(0.0)
            stack.append((idx, layer))
            s_start.append(clock())
            try:
                return target(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def _hooked(self, fn, qualname: str):
        if qualname in _TERM_PAIR_FUNCS:
            def count_pairs(f, g, *rest, **kwargs):
                self.term_pairs += len(f.terms) * len(g.terms)
                return fn(f, g, *rest, **kwargs)
            return count_pairs
        if qualname in _DISTINCT_FUNCS:
            seen = self.distinct[qualname]

            def record(*args, **kwargs):
                result = fn(*args, **kwargs)
                seen.setdefault((args, tuple(sorted(kwargs.items()))), result)
                return result
            return record
        return fn

    def header(self, op_id: str) -> dict:
        def calls(*names):
            return sum(self.calls[self.names.index(n)] for n in names if n in self.names)

        bases = ("bases.classical_basis", "bases.mass_basis")
        elements = [el for name in bases for result in self.distinct[name].values()
                    for el in result]
        bits = [max(q.numerator.bit_length(), q.denominator.bit_length())
                for el in elements
                for q in (el.sq_norm, *el.poly.terms.values())]
        return {
            "op_id": op_id,
            "names": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "calls": self.calls,
            "term_pairs": self.term_pairs,
            "harmonic_calls": calls("harmonics.harmonic_basis"),
            "harmonic_builds": len(self.distinct["harmonics.harmonic_basis"]),
            "basis_calls": calls(*bases),
            "basis_builds": sum(len(self.distinct[name]) for name in bases),
            "basis_elements": len(elements),
            "basis_max_coeff_bits": max(bits, default=0),
            "spans": len(self.spans["name"]),
        }

    def dump(self, path: str, op_id: str) -> None:
        with open(path, "wb") as fh:
            fh.write(json.dumps(self.header(op_id)).encode() + b"\n")
            for key, _ in _ARRAYS:
                self.spans[key].tofile(fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables and rebind them in all orthoball namespaces."""
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"orthoball.{layer}")
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            qualname = f"{layer}.{attr}"
            if isinstance(obj, type):
                if not attr.startswith("_"):
                    _wrap_methods(tracer, obj, qualname)
            elif callable(obj) and (not attr.startswith("_") or qualname in _FORCED):
                # The wrapper keeps ``obj`` alive, so its id stays unique.
                replaced[id(obj)] = tracer.wrap(obj, qualname)
    for name, module in list(sys.modules.items()):
        if name != "orthoball" and not name.startswith("orthoball."):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def _wrap_methods(tracer: Tracer, cls: type, qualname: str) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _DUNDERS:
            continue
        name = f"{qualname}.{attr}"
        if isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(obj.__func__, name)))
        elif callable(obj):
            setattr(cls, attr, tracer.wrap(obj, name))


def read_spans(path: str) -> tuple[dict, dict[str, array]]:
    """Load a spans file written by ``Tracer.dump``: the header and the four span arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        spans = {}
        for key, code in _ARRAYS:
            spans[key] = array(code)
            spans[key].fromfile(fh, count)
    return header, spans


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics of one traced op, keyed as in BENCHMARK.json's per_layer list."""
    header, spans = read_spans(path)
    names, layers = header["names"], header["layers"]
    name_ids, parents = spans["name"], spans["parent"]
    duration = [end - start for start, end in zip(spans["start"], spans["end"])]
    self_time = list(duration)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            self_time[parent] -= duration[idx]

    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_spans = dict.fromkeys(LAYERS, 0)
    write_s = 0.0
    for idx, nid in enumerate(name_ids):
        layer = layers[nid]
        layer_self[layer] += self_time[idx]
        layer_spans[layer] += 1
        if names[nid] in _FORCED:
            write_s += duration[idx]

    calls = dict(zip(names, header["calls"]))

    def hit_ratio(total, distinct):
        return 1 - distinct / total if total else 0.0

    metrics = {
        "measures.calls": layer_spans["measures"],
        "measures.self_s": layer_self["measures"],
        "measures.moment_calls": calls.get("measures.ball_moment", 0)
        + calls.get("measures.sphere_moment", 0),
        "measures.term_pairs": header["term_pairs"],
        "jacobi.calls": layer_spans["jacobi"],
        "jacobi.self_s": layer_self["jacobi"],
        "harmonics.self_s": layer_self["harmonics"],
        "harmonics.basis_builds": header["harmonic_builds"],
        "harmonics.hit_ratio": hit_ratio(header["harmonic_calls"], header["harmonic_builds"]),
        "bases.self_s": layer_self["bases"],
        "bases.elements": header["basis_elements"],
        "bases.hit_ratio": hit_ratio(header["basis_calls"], header["basis_builds"]),
        "bases.max_coeff_bits": header["basis_max_coeff_bits"],
        "operators.calls": layer_spans["operators"],
        "operators.self_s": layer_self["operators"],
        "polynomials.self_s": layer_self["polynomials"],
        "exact_gamma.calls": layer_spans["exact_gamma"],
        "verify.self_s": layer_self["verify"],
        "cli.write_s": write_s,
    }
    metrics["total_self_s"] = sum(self_time)
    metrics["spans"] = len(name_ids)
    return metrics


def main(argv: list[str]) -> int:
    spans_path, op_id, *cli_args = argv
    cli = importlib.import_module("orthoball.cli")
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path, op_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
