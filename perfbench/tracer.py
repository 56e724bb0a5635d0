"""Per-layer spans for the traced benchmark run, recorded from outside src/.

The tracer replaces module attributes with wrappers, so the package runs
unmodified.  The wrapped boundaries are the calls ``daghash.enumeration``
makes into the other modules (matrix decode, the path prune, the md5
refinement, the oracle), ``daghash.cli.record_line`` (record emit), and the
benchmark's own calls to ``daghash.hashing.graph_invariants`` and
``daghash.isomorphism.are_isomorphic``.  Each boundary keeps a call count
and busy seconds per vertex count instead of one span per call, so the
hundreds of thousands of calls in a census6e7 run stay a few lists long.
"""

import math
import operator
import time

from daghash import cli, enumeration, hashing, isomorphism

MAX_N = 64

# Boundaries each workload is meant to exercise.  One of them recording no
# calls means the trace lost it, not that the layer took no time.
EXPECTED = {
    "census6e7": ("decode", "span", "digest", "record"),
    "verify6e8": ("decode", "span", "digest", "oracle"),
    "concat10": ("digest", "concat", "oracle"),
}


class Tracer:
    """Call counts and busy seconds per boundary, split by vertex count."""

    def __init__(self):
        self.calls = {}
        self.secs = {}
        for name in ("decode", "span", "digest", "oracle", "record", "concat"):
            self.calls[name] = [0] * MAX_N
            self.secs[name] = [0.0] * MAX_N
        self.survived = [0] * MAX_N
        self.concat_bytes = 0
        self._saved = []

    def install(self):
        first = operator.itemgetter(0)
        self._patch(enumeration, "neighbor_lists_from_bits", self._timed("decode", first))
        self._patch(enumeration, "span_mask", self._timed("span", first, self.survived))
        self._patch(enumeration, "invariant_from_lists", self._timed("digest", first))
        oracle = self._timed("oracle", lambda args: args[0].n)
        self._patch(enumeration, "are_isomorphic", oracle)
        self._patch(isomorphism, "are_isomorphic", oracle)
        self._patch(cli, "record_line", self._timed("record", lambda args: args[1].n))
        self._patch(hashing, "graph_invariants", self._invariants_wrapper)

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _patch(self, module, name, make):
        fn = getattr(module, name)
        self._saved.append((module, name, fn))
        setattr(module, name, make(fn))

    def _timed(self, boundary, n_of, survived=None):
        """Wrapper maker counting calls and seconds under n_of(args).

        With survived given, also counts calls whose result is the full
        n-vertex mask (span_mask's test for the path condition).
        """
        calls, secs = self.calls[boundary], self.secs[boundary]
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                t = clock()
                out = fn(*args, **kwargs)
                dt = clock() - t
                n = n_of(args)
                secs[n] += dt
                calls[n] += 1
                if survived is not None and out == (1 << n) - 1:
                    survived[n] += 1
                return out
            return wrapper
        return make

    def _invariants_wrapper(self, fn):
        clock = time.perf_counter

        def wrapper(graphs, backend="md5"):
            t = clock()
            out = fn(graphs, backend)
            dt = clock() - t
            n = graphs[0].n
            if backend == "concat":
                self.calls["concat"][n] += len(graphs)
                self.secs["concat"][n] += dt
                self.concat_bytes = len(out[0])
            else:
                self.calls["digest"][n] += len(graphs)
                self.secs["digest"][n] += dt
            return out
        return wrapper

    def layer_metrics(self, workload, state, main_s, classes, duplicates,
                      bytes_out):
        """Per-layer metrics of one traced run, and failed count checks.

        main_s is the traced wall time of the workload call.  For the
        enumeration workloads that call is cli.main, the parent span.
        """
        calls = {b: sum(c) for b, c in self.calls.items()}
        secs = {b: sum(s) for b, s in self.secs.items()}
        problems = [
            f"boundary {b} recorded no calls"
            for b in EXPECTED[workload] if calls[b] == 0
        ]
        m = {
            "graphs.decode_calls": calls["decode"],
            "graphs.decode_s": secs["decode"],
            "graphs.span_calls": calls["span"],
            "graphs.span_s": secs["span"],
            "graphs.survived": sum(self.survived),
            "graphs.survive_ratio": _ratio(sum(self.survived), calls["span"]),
            "hashing.digest_calls": calls["digest"],
            "hashing.digest_s": secs["digest"],
            "hashing.us_per_digest": _us(secs["digest"], calls["digest"]),
            "hashing.concat_s": secs["concat"],
            "hashing.concat_bytes": self.concat_bytes,
            "isomorphism.oracle_calls": calls["oracle"],
            "isomorphism.oracle_s": secs["oracle"],
            "isomorphism.us_per_call": _us(secs["oracle"], calls["oracle"]),
            "formats.record_calls": calls["record"],
            "formats.record_s": secs["record"],
            "formats.bytes_out": bytes_out,
            "adversarial.build_s": state["build_s"],
        }
        for n in range(2, 7):
            m[f"hashing.us_per_digest.n{n}"] = _us(
                self.secs["digest"][n], self.calls["digest"][n]
            )
        config = state.get("config")
        if config is None:
            m.update({
                "cli.main_s": 0.0,
                "enumeration.matrices_scanned": 0,
                "enumeration.over_budget": 0,
                "enumeration.self_s": 0.0,
                "enumeration.classes": 0,
                "enumeration.duplicates": 0,
                "enumeration.class_ratio": 0.0,
            })
            return m, problems

        sizes = range(2, config.n_max + 1)
        scanned = sum(1 << math.comb(n, 2) for n in sizes)
        children = sum(secs[b] for b in ("decode", "span", "digest", "oracle", "record"))
        m.update({
            "cli.main_s": main_s,
            "enumeration.matrices_scanned": scanned,
            "enumeration.over_budget": scanned - calls["decode"],
            "enumeration.self_s": main_s - children,
            "enumeration.classes": classes,
            "enumeration.duplicates": calls["digest"] - classes,
            "enumeration.class_ratio": _ratio(classes, calls["digest"]),
        })

        # Identities the counts must satisfy on any correct enumeration.
        within_budget = sum(
            math.comb(math.comb(n, 2), e)
            for n in sizes for e in range(config.e_max + 1)
        )
        if calls["decode"] != within_budget:
            problems.append(
                f"decode_calls {calls['decode']} != {within_budget} matrices within the edge budget"
            )
        if calls["span"] != calls["decode"]:
            problems.append("span_calls != decode_calls")
        # With reserved I/O colors, n vertices have k^(n-2) colorings.
        hashed = sum(self.survived[n] * config.k ** (n - 2) for n in sizes)
        if calls["digest"] != hashed:
            problems.append(
                f"digest_calls {calls['digest']} != {hashed} colorings of surviving matrices"
            )
        if duplicates is None:
            if calls["record"] != classes:
                problems.append(f"record_calls {calls['record']} != {classes} classes")
        elif calls["oracle"] != duplicates:
            problems.append(f"oracle_calls {calls['oracle']} != {duplicates} duplicates")
        return m, problems


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _us(seconds, calls):
    return seconds / calls * 1e6 if calls else 0.0
