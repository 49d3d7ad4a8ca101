"""The per-layer metrics of the traced run, and what each should move.

Every traced callable yields two metrics, ``<layer>.calls`` (count) and
``<layer>.self_s`` (span time minus the time covered by child spans).
``exercised_on`` lists the workloads whose timed phase must call the layer;
the traced run fails when one of them shows zero calls, because that means
a namespace was missed when the wrappers were installed.  ``moves`` names
the end-to-end metrics a change to the layer should move, and
``stays_on`` the workloads where it should not move.
"""

MEMBERSHIP, FIELD_BUILD, EXACT_EVAL = "membership", "field-build", "exact-eval"
ALL = (MEMBERSHIP, FIELD_BUILD, EXACT_EVAL)

POLYS = ("sturm_chain", "isolate_real_roots", "refine_root", "sum_poly",
          "prod_poly", "resultant", "divmod_", "gcd")

# (layer, exercised_on, moves, stays_on)
SPANS = [
    ("linrec.value_set_membership", (MEMBERSHIP,), ("ops_per_s", "op_p50_ms"),
     (FIELD_BUILD, EXACT_EVAL)),
    ("linrec.TransferMap.apply", (MEMBERSHIP,), ("ops_per_s", "op_p50_ms"),
     (FIELD_BUILD, EXACT_EVAL)),
    ("linrec.LinRecSeq.term", (MEMBERSHIP,), ("ops_per_s", "op_p50_ms"),
     (EXACT_EVAL,)),
    ("linrec.salem_recover_exact", (MEMBERSHIP,), ("ops_per_s", "op_tail_ms"),
     (FIELD_BUILD, EXACT_EVAL)),
    ("constructions.exponent_of", (MEMBERSHIP,), ("ops_per_s", "op_p50_ms"),
     (EXACT_EVAL,)),
    ("constructions.PisotSetSpec.create", (FIELD_BUILD,), ("wall_s",),
     (MEMBERSHIP,)),
    ("constructions.hereditary_query", (FIELD_BUILD,), ("wall_s",),
     (MEMBERSHIP,)),
    ("constructions.pisot_unit_test", (FIELD_BUILD,), ("wall_s",),
     (MEMBERSHIP,)),
    ("constructions.salem_test", (FIELD_BUILD,), ("wall_s",), (MEMBERSHIP,)),
    ("linrec.SalemRecoveryFamily.recover", (FIELD_BUILD,), ("wall_s",),
     (MEMBERSHIP,)),
] + [
    (f"numberfield.FieldElement.{op}", (MEMBERSHIP,), ("op_p50_ms",),
     (FIELD_BUILD,)) for op in ("mul", "add", "eq", "pow")
] + [
    ("numberfield.NumberField.root_box", (FIELD_BUILD,),
     ("wall_s", "cli_cold_s"), (MEMBERSHIP, EXACT_EVAL)),
    ("numberfield.count_roots_in_rect", (FIELD_BUILD,),
     ("wall_s", "cli_cold_s"), (MEMBERSHIP, EXACT_EVAL)),
    ("numberfield.certified_floor", (EXACT_EVAL,), ("op_p50_ms",),
     (FIELD_BUILD,)),
    ("numberfield.FieldElement.embed", (EXACT_EVAL,), ("op_p50_ms",),
     (FIELD_BUILD,)),
] + [
    # exact-eval isolates no polynomial's real roots once its fields exist
    (f"polys.{fn}",
     (FIELD_BUILD,) if fn == "isolate_real_roots" else (FIELD_BUILD, EXACT_EVAL),
     ("wall_s", "ops_per_s"), (MEMBERSHIP,)) for fn in POLYS
] + [
    (f"intervals.{cls}.mul", (FIELD_BUILD,), ("wall_s",), (MEMBERSHIP,))
    for cls in ("RatInterval", "ComplexBox")
] + [
    (f"algebraic.RealAlg.{op}", (EXACT_EVAL,), ("ops_per_s", "op_tail_ms"),
     (MEMBERSHIP, FIELD_BUILD))
    for op in ("add", "mul", "floor", "compare_rational")
] + [
    ("algebraic.re_of_embedding", (EXACT_EVAL,), ("ops_per_s", "op_tail_ms"),
     (MEMBERSHIP, FIELD_BUILD)),
    ("genpoly.eval_expr", (EXACT_EVAL,), ("op_p50_ms",), (MEMBERSHIP,)),
    ("analysis.sturmian", (EXACT_EVAL,), ("op_p50_ms",), (MEMBERSHIP,)),
    ("analysis.subword_complexity", (EXACT_EVAL,), ("op_p50_ms",),
     (MEMBERSHIP,)),
    ("cli.dispatch", (FIELD_BUILD,), ("cli_cold_s", "setup_s"), ()),
]

# single-valued layer metrics: (name, unit, better, exercised_on, moves, stays_on)
SCALARS = [
    ("linrec.nint_fast_ratio", "ratio", "higher", (MEMBERSHIP,),
     ("ops_per_s", "op_p50_ms"), (FIELD_BUILD, EXACT_EVAL)),
] + [
    (f"numberfield.NumberField.deg{d}_s", "s", "lower", (FIELD_BUILD,),
     ("wall_s", "cli_cold_s"), (MEMBERSHIP, EXACT_EVAL)) for d in range(2, 7)
] + [
    ("algebraic.resolvent_cache_hit_ratio", "ratio", "higher", (EXACT_EVAL,),
     ("ops_per_s", "op_tail_ms"), (MEMBERSHIP, FIELD_BUILD)),
    ("cli.import_s", "s", "lower", (FIELD_BUILD,), ("cli_cold_s", "setup_s"),
     ()),
    ("trace.overhead_ratio", "ratio", "lower", ALL, (), ()),
]

EXERCISED_ON = {row[0]: row[-3] for row in SPANS + SCALARS}


def per_layer_metrics() -> list:
    """Every per-layer metric as it appears in BENCHMARK.json."""
    out = []
    for layer, *_ in SPANS:
        out.append({"name": f"{layer}.calls", "unit": "count",
                    "better": "lower"})
        out.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    for name, unit, better, *_ in SCALARS:
        out.append({"name": name, "unit": unit, "better": better})
    return out
