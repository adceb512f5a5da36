"""Span tracing for the benchmark's traced run (``--trace 1``).

The tracer rebinds each traced library function, in its defining module and
in every liediff module that imported it by name (``derive`` is imported into
ops, lie, normalpoly and frobenius), to a wrapper that records a span: name,
start, end, parent span and operation id.  Nothing under src/ changes.

The benchmark installs a fresh tracer for each pass of its loop and removes
it after the pass.  Spans stay in memory, in flat arrays, until then;
``reduce`` turns them into per-name calls and self time.  A span's self time is its
duration minus the durations of its direct children: calls nest on one
thread, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array

from liediff.errors import LieDiffError

#: (span name, module, attribute) of every traced boundary.  The span name's
#: first component is its layer.
TRACED = (
    ("field.mpoly_gcd", "field", "mpoly_gcd"),
    ("field.divexact", "field", "divexact"),
    ("field.MPoly.mul", "field", "MPoly.__mul__"),
    ("field.RatFunc.add", "field", "RatFunc.__add__"),
    ("field.RatFunc.mul", "field", "RatFunc.__mul__"),
    ("field.derive", "field", "derive"),
    ("field.ratfunc_normalize", "field", "ratfunc_normalize"),
    ("ops.normalize", "ops", "normalize"),
    ("ops.apply_operator", "ops", "apply_operator"),
    ("ops.op_mul", "ops", "op_mul"),
    ("normalpoly.x_action", "normalpoly", "x_action"),
    ("normalpoly.fresh_extension", "normalpoly", "fresh_extension"),
    ("normalpoly.derive_normal", "normalpoly", "derive_normal"),
    ("normalpoly.eval_hom", "normalpoly", "eval_hom"),
    ("frobenius.matrix_rank", "frobenius", "matrix_rank"),
    ("frobenius.matrix_invert", "frobenius", "matrix_invert"),
    ("frobenius.commuting_basis", "frobenius", "commuting_basis"),
    ("frobenius.change_basis_check", "frobenius", "change_basis_check"),
    ("lie.check_presentation", "lie", "check_presentation"),
    ("parsing.parse_field_expr", "parsing", "parse_field_expr"),
    ("parsing.parse_operator_expr", "parsing", "parse_operator_expr"),
    ("parsing.parse_normalpoly_expr", "parsing", "parse_normalpoly_expr"),
)

#: Layers whose LieDiffErrors the tracer counts; the cli layer's errors are
#: the CLI processes that exit with code 2, counted by run.py.
LAYERS = ("field", "ops", "normalpoly", "frobenius", "lie", "parsing")


class Tracer:
    """Records spans while installed; ``op`` is the id of the running
    operation (0 outside one)."""

    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.sid = array("H")
        self.parent = array("l")
        self.opid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = 0
        # counts taken at the boundaries, where the work happens
        self.steps = 0
        self.terms_out = 0
        self.steps_by_op: dict[int, int] = {}
        self.gcd_trivial = 0
        self.errors = dict.fromkeys(LAYERS, 0)
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for i, (name, modname, attr) in enumerate(TRACED):
            mod = sys.modules[f"liediff.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(i, name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(i, name, orig)
            for modname2, mod2 in list(sys.modules.items()):
                if (modname2 == "liediff" or modname2.startswith("liediff.")) and \
                        vars(mod2).get(attr) is orig:
                    self._rebind(mod2, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def _rebind(self, obj, attr, new) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def _wrap(self, i: int, name: str, fn):
        sid, parent, opid, start, end, stack = (
            self.sid, self.parent, self.opid, self.start, self.end, self.stack)
        clock = time.perf_counter
        layer = name.split(".")[0]
        errors = self.errors
        tracer = self

        def span(*args, **kwargs):
            k = len(start)
            sid.append(i)
            parent.append(stack[-1])
            opid.append(tracer.op)
            end.append(0.0)
            stack.append(k)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except LieDiffError as e:
                if not getattr(e, "_perfbench_counted", False):
                    e._perfbench_counted = True
                    errors[layer] += 1
                raise
            finally:
                end[k] = clock()
                stack.pop()

        if name == "ops.normalize":
            return self._counting_normalize(span)
        if name == "field.mpoly_gcd":
            return self._counting_gcd(span)
        return span

    def _counting_normalize(self, span):
        # the rewrite-step count comes from normalize's own ``stats=``
        tracer = self

        def normalize(w, p, strategy="leftmost", stats=None):
            st = {} if stats is None else stats
            out = span(w, p, strategy, st)
            steps = st.get("steps", 0)
            tracer.steps += steps
            tracer.steps_by_op[tracer.op] = tracer.steps_by_op.get(tracer.op, 0) + steps
            tracer.terms_out += len(out.terms)
            return out

        return normalize

    def _counting_gcd(self, span):
        tracer = self

        def mpoly_gcd(f, g):
            out = span(f, g)
            if out.is_const():
                tracer.gcd_trivial += 1
            return out

        return mpoly_gcd

    # -- reduction ------------------------------------------------------------

    def reduce(self) -> dict:
        """Per-name calls and self seconds, boundary counts, errors per layer,
        and per-operation gcd calls and rewrite steps."""
        sid, parent, opid, start, end = self.sid, self.parent, self.opid, self.start, self.end
        n = len(start)
        child = array("d", bytes(8 * n))
        for k in range(n):
            p = parent[k]
            if p >= 0:
                child[p] += end[k] - start[k]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        gcd = self.names.index("field.mpoly_gcd")
        gcd_by_op: dict[int, int] = {}
        for k in range(n):
            s = sid[k]
            calls[s] += 1
            self_s[s] += end[k] - start[k] - child[k]
            if s == gcd:
                gcd_by_op[opid[k]] = gcd_by_op.get(opid[k], 0) + 1
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "steps": self.steps,
            "terms_out": self.terms_out,
            "gcd_trivial": self.gcd_trivial,
            "errors": dict(self.errors),
            "spans": n,
            "gcd_by_op": gcd_by_op,
            "steps_by_op": dict(self.steps_by_op),
        }


def merge(total: dict, part: dict) -> None:
    """Add the reduction of another process (a traced CLI call) into total."""
    for key in ("calls", "self_s", "errors"):
        for name, v in part[key].items():
            total[key][name] = total[key].get(name, 0) + v
    for key in ("steps", "terms_out", "gcd_trivial", "spans"):
        total[key] += part[key]


def layer_metrics(red: dict) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    out = {}
    for name in red["calls"]:
        out[f"{name}.calls"] = (red["calls"][name], "count")
        out[f"{name}.self_s"] = (red["self_s"][name], "s")
    gcd_calls = red["calls"]["field.mpoly_gcd"]
    out["field.mpoly_gcd.trivial_ratio"] = (red["gcd_trivial"] / gcd_calls if gcd_calls else 0.0, "ratio")
    out["ops.normalize.steps"] = (red["steps"], "count")
    out["ops.normalize.terms_out"] = (red["terms_out"], "count")
    out["ops.normalize.terms_per_step"] = (
        red["terms_out"] / red["steps"] if red["steps"] else 0.0, "ratio")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (red["errors"][layer], "count")
    return out
