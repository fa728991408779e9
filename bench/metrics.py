"""Metric definitions: one row per metric, with the layer it belongs to and
the end-to-end metric and workload(s) it is expected to move.

`BENCHMARK.json` lists the same names, units and directions; its format has
no room for the layer and the expected effect, so they live here.  Every
per-layer metric comes from the traced run only.  Elsewhere than the
workloads named in a row, the predicted change is none.

Sources of a per-layer value:
    ("incl", span)        inclusive seconds of the outermost calls of a span
    ("self", span)        self seconds of a span: duration minus child spans
    ("calls", span)       number of calls; a span ending in ".*" is a prefix
    ("layer", layer)      self seconds of every span of one layer module
    ("counter", key, span)  a probe count; needs `span` to be hooked
    ("report", status)    records with that status in report.json
    ("derived", name)     computed in `per_layer_values` below

A span that no longer exists in the program makes its metrics `absent`
(value None), never 0.
"""

S4, DYADIC, RANDOM = "s4-all", "dyadic512-cert", "random192-pairs"
ALL = (S4, DYADIC, RANDOM)

# name, unit, better, bound, what it measures
END_TO_END = (
    ("run_s", "s", "lower", 0.25,
     "wall seconds of cli.main(['run', ...]) in a fresh child process; median over runs"),
    ("setup_s", "s", "lower", 0.25,
     "wall seconds of cli.build_context; median over the in-run call and warm repeats"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "the child's ru_maxrss after the run; median over runs"),
)

CHECK_TOKENS = (
    "ultrametric", "form", "semigroup", "vanishing", "perturbation", "power",
    "lp_derivative", "moser", "supbound", "ode", "nash", "due", "wue",
    "energy_diff", "p8", "tail", "theorem1",
)
DYADIC_CHECKS = ("ultrametric", "due", "wue", "tail", "theorem1")
RANDOM_CHECKS = ("form", "perturbation", "power", "energy_diff", "p8")

GEN = "semigroup.SpectralGenerator"

# name, unit, better, source, layer, moves, workloads
PER_LAYER = tuple(
    (f"cli.check.{tok}_s", "s", "lower", ("incl", f"cli.check.{tok}"), "cli", "run_s",
     (S4,) + tuple(w for w, checks in ((DYADIC, DYADIC_CHECKS), (RANDOM, RANDOM_CHECKS))
                   if tok in checks))
    for tok in CHECK_TOKENS
) + (
    ("cli.write_curves_s", "s", "lower", ("incl", "cli.write_curves"), "cli", "run_s",
     (DYADIC, RANDOM)),
    ("cli.report_json_s", "s", "lower", ("incl", "cli.VerificationReport.to_json"), "cli",
     "run_s", (RANDOM,)),
    ("cli.self_s", "s", "lower", ("layer", "cli"), "cli", "run_s", ALL),

    ("space.build_s", "s", "lower", ("incl", "space.load_space"), "space", "setup_s", ALL),
    ("space.validate_ultrametric_s", "s", "lower", ("incl", "space.validate_ultrametric"),
     "space", "run_s", (DYADIC,)),
    ("space.distance_matrix_calls", "count", "lower",
     ("calls", "space.UltrametricSpace.distance_matrix"), "space", "run_s", ALL),
    ("space.self_s", "s", "lower", ("layer", "space"), "space", "run_s", (DYADIC,)),

    ("kernel.isotropic_kernel_s", "s", "lower", ("incl", "kernel.isotropic_kernel"),
     "kernel", "setup_s", ALL),
    ("kernel.tj_constant_calls", "count", "lower", ("calls", "kernel.tj_constant"),
     "kernel", "run_s", (DYADIC,)),
    ("kernel.tj_constant_s", "s", "lower", ("incl", "kernel.tj_constant"), "kernel",
     "run_s", (DYADIC,)),
    ("kernel.tail_vector_calls", "count", "lower", ("calls", "kernel.JumpKernel.tail_vector"),
     "kernel", "run_s", (DYADIC,)),
    ("kernel.self_s", "s", "lower", ("layer", "kernel"), "kernel", "run_s", (DYADIC,)),

    ("form.energy_and_scale_calls", "count", "lower", ("calls", "form.energy_and_scale"),
     "form", "run_s", (RANDOM,)),
    ("form.energy_and_scale_s", "s", "lower", ("incl", "form.energy_and_scale"), "form",
     "run_s", (RANDOM,)),
    ("form.pair_terms_computed", "count", "lower",
     ("counter", "form.pair_terms_computed", "form.energy_and_scale"), "form", "run_s",
     (RANDOM,)),
    ("form.energy_batch_calls", "count", "lower", ("calls", "form.energy_batch"), "form",
     "run_s", (RANDOM,)),
    ("form.energy_batch_cols", "count", "lower",
     ("counter", "form.energy_batch_cols", "form.energy_batch"), "form", "run_s", (RANDOM,)),
    ("form.energy_batch_s", "s", "lower", ("incl", "form.energy_batch"), "form", "run_s",
     (RANDOM,)),
    ("form.self_s", "s", "lower", ("layer", "form"), "form", "run_s", (RANDOM,)),

    ("semigroup.generator_builds", "count", "lower", ("calls", f"{GEN}.__init__"),
     "semigroup", "run_s", (DYADIC,)),
    ("semigroup.generator_distinct", "count", "lower",
     ("counter", "semigroup.generator_distinct", f"{GEN}.__init__"), "semigroup", "run_s",
     (DYADIC,)),
    ("semigroup.generator_reuse_ratio", "ratio", "higher",
     ("derived", "generator_reuse_ratio"), "semigroup", "run_s", (DYADIC,)),
    ("semigroup.generator_build_s", "s", "lower", ("incl", f"{GEN}.__init__"), "semigroup",
     "run_s", (DYADIC,)),
    ("semigroup.eigh_ops_computed", "count", "lower",
     ("counter", "semigroup.eigh_ops_computed", f"{GEN}.__init__"), "semigroup", "run_s",
     (DYADIC,)),
    ("semigroup.density_calls", "count", "lower", ("calls", f"{GEN}.density"), "semigroup",
     "run_s", (DYADIC,)),
    ("semigroup.density_s", "s", "lower", ("incl", f"{GEN}.density"), "semigroup", "run_s",
     (DYADIC,)),
    ("semigroup.density_bytes_computed", "bytes", "lower",
     ("counter", "semigroup.density_bytes_computed", f"{GEN}.density"), "semigroup",
     "run_s", (DYADIC,)),
    ("semigroup.heat_matrix_calls", "count", "lower", ("calls", f"{GEN}.heat_matrix"),
     "semigroup", "run_s", (DYADIC,)),
    ("semigroup.heat_matrix_s", "s", "lower", ("incl", f"{GEN}.heat_matrix"), "semigroup",
     "run_s", (DYADIC,)),
    ("semigroup.apply_calls", "count", "lower", ("calls", f"{GEN}.apply"), "semigroup",
     "run_s", (S4, RANDOM)),
    ("semigroup.apply_s", "s", "lower", ("incl", f"{GEN}.apply"), "semigroup", "run_s",
     (S4, RANDOM)),
    ("semigroup.apply_grid_calls", "count", "lower", ("calls", f"{GEN}.apply_grid"),
     "semigroup", "run_s", (S4,)),
    ("semigroup.apply_grid_cols", "count", "lower",
     ("counter", "semigroup.apply_grid_cols", f"{GEN}.apply_grid"), "semigroup", "run_s",
     (S4,)),
    ("semigroup.apply_grid_s", "s", "lower", ("incl", f"{GEN}.apply_grid"), "semigroup",
     "run_s", (S4,)),
    ("semigroup.hierarchical_calls", "count", "higher",
     ("calls", "semigroup.HierarchicalHeatKernel.*"), "semigroup", "run_s", (DYADIC,)),
    ("semigroup.self_s", "s", "lower", ("layer", "semigroup"), "semigroup", "run_s",
     (DYADIC,)),

    ("davies.lp_norm_calls", "count", "lower", ("calls", "davies.lp_norm"), "davies",
     "run_s", (S4,)),
    ("davies.lp_norm_s", "s", "lower", ("incl", "davies.lp_norm"), "davies", "run_s", (S4,)),
    ("davies.moser_iteration_s", "s", "lower", ("incl", "davies.moser_iteration"), "davies",
     "run_s", (S4,)),
    ("davies.moser_iteration_self_s", "s", "lower", ("self", "davies.moser_iteration"),
     "davies", "run_s", (S4,)),
    ("davies.moser_grid_points", "count", "lower",
     ("counter", "davies.moser_grid_points", "davies.moser_iteration"), "davies", "run_s",
     (S4,)),
    ("davies.lp_derivative_check_s", "s", "lower", ("incl", "davies.lp_derivative_check"),
     "davies", "run_s", (S4,)),
    ("davies.sup_bound_check_s", "s", "lower", ("incl", "davies.sup_bound_check"), "davies",
     "run_s", (S4,)),
    ("davies.ode_sweep_s", "s", "lower", ("incl", "davies.ode_sweep"), "davies", "run_s",
     (S4,)),
    ("davies.nash_enlargements", "count", "lower", ("derived", "nash_enlargements"),
     "davies", "run_s", (S4,)),
    ("davies.perturbation_identity_calls", "count", "lower",
     ("calls", "davies.perturbation_identity_check"), "davies", "run_s", (RANDOM,)),
    ("davies.perturbation_battery_self_s", "s", "lower",
     ("self", "davies.perturbation_battery"), "davies", "run_s", (RANDOM,)),
    ("davies.power_battery_s", "s", "lower", ("incl", "davies.power_battery"), "davies",
     "run_s", (RANDOM,)),
    ("davies.self_s", "s", "lower", ("layer", "davies"), "davies", "run_s", (S4,)),

    ("bounds.due_constant_s", "s", "lower", ("incl", "bounds.due_constant"), "bounds",
     "run_s", (DYADIC,)),
    ("bounds.wue_constant_s", "s", "lower", ("incl", "bounds.wue_constant"), "bounds",
     "run_s", (DYADIC,)),
    ("bounds.nash_constant_calls", "count", "lower", ("calls", "bounds.nash_constant"),
     "bounds", "run_s", (DYADIC,)),
    ("bounds.nash_constant_s", "s", "lower", ("incl", "bounds.nash_constant"), "bounds",
     "run_s", (DYADIC,)),
    ("bounds.wue_certificate_s", "s", "lower", ("incl", "bounds.wue_certificate"), "bounds",
     "run_s", (DYADIC,)),
    ("bounds.wue_certificate_self_s", "s", "lower", ("self", "bounds.wue_certificate"),
     "bounds", "run_s", (DYADIC,)),
    ("bounds.tail_probability_check_self_s", "s", "lower",
     ("self", "bounds.tail_probability_check"), "bounds", "run_s", (DYADIC,)),
    ("bounds.truncation_comparison_check_s", "s", "lower",
     ("incl", "bounds.truncation_comparison_check"), "bounds", "run_s", (RANDOM,)),
    ("bounds.energy_difference_check_s", "s", "lower",
     ("incl", "bounds.energy_difference_check"), "bounds", "run_s", (RANDOM,)),
    ("bounds.self_s", "s", "lower", ("layer", "bounds"), "bounds", "run_s", (DYADIC,)),

    ("reporting.records_pass", "count", "higher", ("report", "pass"), "reporting", "run_s",
     ALL),
    ("reporting.records_fail", "count", "lower", ("report", "fail"), "reporting", "run_s",
     ALL),
    ("reporting.records_vacuous", "count", "lower", ("report", "vacuous"), "reporting",
     "run_s", ALL),
    ("reporting.self_s", "s", "lower", ("layer", "reporting"), "reporting", "run_s",
     (RANDOM,)),

    ("trace.run_s", "s", "lower", ("derived", "trace_run_s"), "trace", "run_s", ALL),
    ("trace.overhead_s", "s", "lower", ("derived", "trace_overhead_s"), "trace", "run_s",
     ALL),
)

# Traffic the traced run should confirm at this commit: (workload, label,
# numerator metrics, share of trace.run_s at least, metrics that must be 0).
TRAFFIC = (
    (S4, "davies self time", ("davies.self_s",), 0.70, ()),
    (RANDOM, "form.energy_and_scale", ("form.energy_and_scale_s",), 0.50,
     ("davies.lp_norm_calls",)),
    (DYADIC, "semigroup + bounds self time", ("semigroup.self_s", "bounds.self_s"), 0.70,
     ("davies.lp_norm_calls",)),
)


def _hooked(span: str, hooked) -> bool:
    if span.endswith(".*"):
        return any(h.startswith(span[:-1]) for h in hooked)
    return span in hooked


def per_layer_values(trace: dict, report: dict, traced_run_s: float,
                     untraced_run_s: float) -> dict:
    """Value of every per-layer metric; None marks an absent hook."""
    names, hooked = trace["names"], trace["hooked"]
    counters = trace["counters"]

    def field(span, key):
        if span.endswith(".*"):
            return sum(v[key] for k, v in names.items() if k.startswith(span[:-1]))
        return names.get(span, {}).get(key, 0)

    builds = field(f"{GEN}.__init__", "calls")
    derived = {
        "generator_reuse_ratio": (counters.get("semigroup.generator_distinct", 0) / builds
                                  if builds else 1.0),
        "nash_enlargements": counters.get("davies.moser_enlargements", 0) + sum(
            1 for r in report["records"] if r["params"].get("enlarged") is True),
        "trace_run_s": traced_run_s,
        "trace_overhead_s": traced_run_s - untraced_run_s,
    }
    needs = {"generator_reuse_ratio": f"{GEN}.__init__",
             "nash_enlargements": "davies.moser_iteration"}
    out = {}
    for name, _unit, _better, source, *_ in PER_LAYER:
        kind = source[0]
        if kind == "derived":
            span = needs.get(source[1])
            value = derived[source[1]] if span is None or _hooked(span, hooked) else None
        elif kind == "report":
            value = report["summary"].get(source[1], 0)
        elif kind == "layer":
            value = trace["layers"].get(source[1], 0.0)
        elif kind == "counter":
            value = counters.get(source[1], 0) if _hooked(source[2], hooked) else None
        elif not _hooked(source[1], hooked):
            value = None
        else:
            value = field(source[1], {"incl": "incl_s", "self": "self_s",
                                      "calls": "calls"}[kind])
        out[name] = value
    return out
