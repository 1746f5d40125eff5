"""Spans and counts at the public entry points of each module.

The traced run replaces every entry point listed in SPANS with a wrapper that
records a span: name, start, end, parent span and case id.  A function is
replaced wherever a module binds it (`graphs` imports `ipt_weighted` by name,
`cli` imports `verify_weighted_brion`, `finite_hl` imports
`exact_div_binomials` and `random_point`); a method is replaced on its class.
Spans stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover.

PER_LAYER lists every per-layer metric with the workloads on which it must
be nonzero.  A change to that layer should move `cases_per_s` and the
latency percentiles on those workloads (`setup_s` for the set-up metrics
ending in `.s`), and the prediction on the other workloads is no change.
"""

from __future__ import annotations

import sys
import time

VZ, BP, AS, FR = ("vertex-zero", "brion-polytopes", "affine-series",
                  "finite-routes")
MODULES = ("ring", "cones", "graphs", "finite_hl", "affine_hl", "cli")


def _length(args, out):
    return len(out)


def _cone_key(args, out):
    # the cone, not the point: repeat_ratio is the share of evaluations of a
    # cone already evaluated in the run, which a cache across instances and
    # points could share
    ct = args[0]
    return hash((id(ct.plan), tuple(ct.block_monos)))


def _coeff_terms(args, out):
    return max((len(c.num.terms) + len(c.den.terms)
                for c in out.coeffs.values()), default=0)


# span name -> (module, function or Class.method, counter metric, counter)
SPANS = {
    "graphs.cone_eval": ("graphs", "ConeTransform.eval",
                         "graphs.cone_eval.repeat_ratio", _cone_key),
    "graphs.enumerate_faces": ("graphs", "enumerate_faces",
                               "graphs.enumerate_faces.faces", _length),
    "graphs.psi_terms": ("graphs", "psi_terms", None, None),
    "graphs.psi_is_zero": ("graphs", "psi_is_zero", None, None),
    "graphs.series_unit": ("graphs", "ConeTransform.series_unit", None, None),
    "graphs.weighted_brion_instance": ("graphs", "weighted_brion_instance",
                                       None, None),
    "graphs.enumerate_ordinary_graphs": ("graphs", "enumerate_ordinary_graphs",
                                         None, None),
    "graphs.random_bounded_instances": ("graphs", "random_bounded_instances",
                                        None, None),
    "cones.ipt_weighted": ("cones", "ipt_weighted", None, None),
    "cones.triangulate": ("cones", "triangulate", "cones.triangulate.cells",
                          _length),
    "cones.parallelepiped_points": ("cones", "parallelepiped_points",
                                    "cones.parallelepiped_points.points",
                                    _length),
    "cones.weighted_sum_bruteforce": ("cones", "weighted_sum_bruteforce",
                                      None, None),
    "cones.lattice_points": ("cones", "Polyhedron.lattice_points",
                             "cones.lattice_points.points", _length),
    "cones.face_lattice": ("cones", "face_lattice", "cones.face_lattice.faces",
                           _length),
    "cones.tangent_cone_at_vertex": ("cones", "tangent_cone_at_vertex",
                                     None, None),
    "cones.verify_weighted_brion": ("cones", "verify_weighted_brion",
                                    None, None),
    "ring.series_mul": ("ring", "TruncatedSeries.__mul__", None, None),
    "ring.series_invert": ("ring", "TruncatedSeries.invert", None, None),
    "ring.exact_div_binomials": ("ring", "exact_div_binomials", None, None),
    "ring.laurent_eval": ("ring", "LaurentPoly.eval_at", None, None),
    "ring.random_point": ("ring", "random_point", None, None),
    "finite_hl.hl_gt": ("finite_hl", "hl_gt", None, None),
    "finite_hl.enumerate_gt": ("finite_hl", "enumerate_gt",
                               "finite_hl.enumerate_gt.patterns", _length),
    "finite_hl.hl_def": ("finite_hl", "hl_def", None, None),
    "finite_hl.subs_t": ("finite_hl", "subs_t", None, None),
    "finite_hl.schur_bialternant": ("finite_hl", "schur_bialternant",
                                    None, None),
    "finite_hl.orbit_sum": ("finite_hl", "orbit_sum", None, None),
    "affine_hl.enumerate_pi": ("affine_hl", "enumerate_pi",
                               "affine_hl.enumerate_pi.sequences", _length),
    "affine_hl.rhs_table": ("affine_hl", "rhs_table", None, None),
    "affine_hl.rhs_series": ("affine_hl", "rhs_series", "ring.coeff_terms.max",
                             _coeff_terms),
    "affine_hl.lhs_series": ("affine_hl", "lhs_series", "ring.coeff_terms.max",
                             _coeff_terms),
    "affine_hl.weyl_elements": ("affine_hl", "weyl_elements",
                                "affine_hl.weyl_elements.count", _length),
    "affine_hl.tau_truncated": ("affine_hl", "tau_truncated",
                                "ring.coeff_terms.max", _coeff_terms),
    "affine_hl.verify_main": ("affine_hl", "verify_main", None, None),
    "affine_hl.verify_contrib": ("affine_hl", "verify_contrib", None, None),
}

# (metric, unit, better, workloads on which it must be nonzero)
PER_LAYER = [
    ("graphs.cone_eval.calls", "count", "lower", (VZ,)),
    ("graphs.cone_eval.self_s", "s", "lower", (VZ,)),
    ("graphs.cone_eval.repeat_ratio", "ratio", "lower", (VZ,)),
    ("graphs.enumerate_faces.calls", "count", "lower", (VZ, BP)),
    ("graphs.enumerate_faces.faces", "count", "lower", (VZ, BP)),
    ("graphs.enumerate_faces.self_s", "s", "lower", (VZ, BP)),
    ("graphs.psi_terms.self_s", "s", "lower", (VZ,)),
    ("graphs.psi_is_zero.self_s", "s", "lower", (VZ,)),
    ("graphs.series_unit.calls", "count", "lower", (AS,)),
    ("graphs.series_unit.self_s", "s", "lower", (AS,)),
    ("graphs.weighted_brion_instance.self_s", "s", "lower", (BP,)),
    ("graphs.enumerate_ordinary_graphs.s", "s", "lower", (VZ, BP)),
    ("graphs.random_bounded_instances.s", "s", "lower", (BP,)),
    ("cones.ipt_weighted.calls", "count", "lower", (BP,)),
    ("cones.ipt_weighted.self_s", "s", "lower", (BP,)),
    ("cones.triangulate.cells", "count", "lower", (BP,)),
    ("cones.triangulate.self_s", "s", "lower", (BP,)),
    ("cones.parallelepiped_points.points", "count", "lower", (BP,)),
    ("cones.parallelepiped_points.self_s", "s", "lower", (BP,)),
    ("cones.weighted_sum_bruteforce.self_s", "s", "lower", (BP,)),
    ("cones.lattice_points.points", "count", "lower", (BP,)),
    ("cones.lattice_points.self_s", "s", "lower", (BP,)),
    ("cones.face_lattice.faces", "count", "lower", (BP,)),
    ("cones.face_lattice.self_s", "s", "lower", (BP,)),
    ("cones.tangent_cone_at_vertex.self_s", "s", "lower", (BP,)),
    ("cones.verify_weighted_brion.self_s", "s", "lower", (BP,)),
    ("ring.series_mul.calls", "count", "lower", (AS,)),
    ("ring.series_mul.self_s", "s", "lower", (AS,)),
    ("ring.series_invert.self_s", "s", "lower", (AS,)),
    ("ring.coeff_terms.max", "count", "lower", (AS,)),
    ("ring.exact_div_binomials.self_s", "s", "lower", (FR,)),
    ("ring.laurent_eval.self_s", "s", "lower", (BP,)),
    ("ring.random_point.self_s", "s", "lower", (VZ, BP)),
    ("finite_hl.hl_gt.self_s", "s", "lower", (FR,)),
    ("finite_hl.enumerate_gt.patterns", "count", "lower", (FR,)),
    ("finite_hl.enumerate_gt.self_s", "s", "lower", (FR,)),
    ("finite_hl.hl_def.self_s", "s", "lower", (FR,)),
    ("finite_hl.subs_t.self_s", "s", "lower", (FR,)),
    ("finite_hl.schur_bialternant.self_s", "s", "lower", (FR,)),
    ("finite_hl.orbit_sum.self_s", "s", "lower", (FR,)),
    ("affine_hl.enumerate_pi.sequences", "count", "lower", (AS,)),
    ("affine_hl.enumerate_pi.self_s", "s", "lower", (AS,)),
    ("affine_hl.rhs_table.self_s", "s", "lower", (AS,)),
    ("affine_hl.rhs_series.self_s", "s", "lower", (AS,)),
    ("affine_hl.lhs_series.self_s", "s", "lower", (AS,)),
    ("affine_hl.weyl_elements.count", "count", "lower", (AS,)),
    ("affine_hl.weyl_elements.self_s", "s", "lower", (AS,)),
    ("affine_hl.tau_truncated.calls", "count", "lower", (AS,)),
    ("affine_hl.tau_truncated.self_s", "s", "lower", (AS,)),
    ("affine_hl.verify_main.self_s", "s", "lower", (AS,)),
    ("affine_hl.verify_contrib.self_s", "s", "lower", (AS,)),
] + [(f"src.lines.{m}", "lines", "lower", (VZ, BP, AS, FR)) for m in MODULES] + [
    # timed phase of the traced run = every self_s above + unattributed_s
    ("trace.timed_s", "s", "lower", (VZ, BP, AS, FR)),
    ("trace.unattributed_s", "s", "lower", (VZ, BP, AS, FR)),
    ("trace.cases", "count", "higher", (VZ, BP, AS, FR)),
    ("trace.cases_per_s", "1/s", "higher", (VZ, BP, AS, FR)),
    ("trace.untraced_cases_per_s", "1/s", "higher", (VZ, BP, AS, FR)),
    ("trace.overhead_ratio", "ratio", "higher", (VZ, BP, AS, FR)),
]


class Tracer:
    """Collects spans in memory: [name, start, end, parent, case, metric, value].

    `case` is None while the workload sets up and the case index during the
    timed phase; `metric` and `value` carry the span's counter, if any.
    """

    def __init__(self):
        self.spans = []
        self.case = None
        self._stack = []

    def wrap(self, name, fn, metric=None, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case,
                   metric, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                rec[6] = measure(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every entry point in SPANS, wherever it is bound."""
        import hlbrion.cli  # noqa: F401  (imports every module)
        mods = [m for name, m in sys.modules.items()
                if name.startswith("hlbrion.")]
        for name, (modname, attr, metric, measure) in SPANS.items():
            mod = sys.modules["hlbrion." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth,
                        self.wrap(name, cls.__dict__[meth], metric, measure))
                continue
            fn = getattr(mod, attr)
            wrapped = self.wrap(name, fn, metric, measure)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    def aggregate(self, timed_s):
        """Per-layer metrics from the spans (all but src.* and trace.*)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, case, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, setup_s, values = {}, {}, {}, {}
        for i, (name, start, end, _, case, metric, value) in enumerate(self.spans):
            if case is None:
                setup_s[name] = setup_s.get(name, 0.0) + end - start
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + end - start - child[i]
            if metric is not None:
                values.setdefault(metric, []).append(value)
        out = {}
        for metric, _, _, _ in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if metric.startswith(("src.", "trace.")):
                continue
            if kind == "calls":
                out[metric] = calls.get(span, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(span, 0.0)
            elif kind == "s":
                out[metric] = setup_s.get(span, 0.0)
            elif kind == "repeat_ratio":
                vals = values.get(metric, [])
                out[metric] = 1 - len(set(vals)) / len(vals) if vals else 0.0
            elif kind == "max":
                out[metric] = max(values.get(metric, []), default=0)
            else:
                out[metric] = sum(values.get(metric, []))
        attributed = sum(v for k, v in out.items() if k.endswith(".self_s"))
        out["trace.timed_s"] = timed_s
        out["trace.unattributed_s"] = timed_s - attributed
        return out
