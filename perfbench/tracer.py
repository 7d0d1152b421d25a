"""Span tracer for the traced benchmark run, built outside the program.

`Tracer.install` wraps every public function of each layer module (and the
public `GroupShape` methods) and puts the wrapper in place of every name
that refers to the original, including names other modules imported.  A
span is recorded only while an operation is running (`op_id` set), so the
benchmark's own output checks stay untraced.

A span is ``[name, start, end, parent, op_id, counts]``; spans are kept in
memory and written out by the caller at the end of the pass.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

LAYERS = ("arith", "group", "spectral", "alignment", "primes", "learning", "cli")

# function -> metric group whose self time it counts toward.  A span whose
# function is in no group counts toward the nearest enclosing span of the
# same layer that is, else toward "<layer>.other_s".  Every cli span counts
# toward cli.self_s.
GROUPS = {
    "arith.sieve": "arith.sieve_s",
    "arith.primes_up_to": "arith.sieve_s",
    "arith.dump_table": "arith.dump_s",
    "arith.load_table": "arith.load_s",
    "group.GroupShape.digits_matrix": "group.digits_matrix_s",
    "group.GroupShape.char_digits_matrix": "group.digits_matrix_s",
    "group.GroupShape.flat_index_of": "group.flat_index_of_s",
    "group.char_values": "group.char_values_s",
    "group.roots_of_unity": "group.char_values_s",
    "group.GroupShape.translation": "group.translation_s",
    "spectral.group_spectrum": "spectral.group_spectrum_s",
    "spectral.inverse_transform": "spectral.group_spectrum_s",
    "spectral.correlation": "spectral.correlation_s",
    "spectral.linf_bound_check": "spectral.bounds_s",
    "spectral.char_l1_norm": "spectral.bounds_s",
    "spectral.interval_l1_sum": "spectral.bounds_s",
    "spectral.ap_l1_sum": "spectral.bounds_s",
    "spectral.truncated_character": "spectral.bounds_s",
    "spectral.char_dft_closed_form": "spectral.bounds_s",
    "spectral.katai_witness": "spectral.katai_s",
    "alignment.alignment_full_group": "alignment.reduce_s",
    "alignment.alignment_semidirect": "alignment.reduce_s",
    "alignment.alignment_subgroup": "alignment.reduce_s",
    "alignment.alignment_gram_oracle": "alignment.gram_oracle_s",
    "primes.count_primes_digit_condition": "primes.count_s",
    "primes.lambda_balanced_correlation": "primes.lambda_balance_s",
    "learning.ngd_train": "learning.ngd_train_s",
    "learning.csq_bad_event_rate": "learning.csq_s",
    "learning.csq_adversarial_game": "learning.csq_s",
}

CLI_SUBCOMMANDS = ("spectrum", "align", "sieve", "katai", "bounds-check",
                   "digital-pnt", "lambda-balance", "ngd", "csq", "gram-oracle")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [("arith.sieve_s", "s"), ("arith.sieve_calls", "count"),
     ("arith.sieve_entries", "count"), ("arith.sieve_redundancy", "ratio"),
     ("arith.dump_s", "s"), ("arith.load_s", "s"), ("arith.io_bytes", "B"),
     ("arith.other_s", "s"),
     ("group.digits_matrix_s", "s"), ("group.digit_cells", "count"),
     ("group.digit_redundancy", "ratio"), ("group.flat_index_of_s", "s"),
     ("group.char_values_s", "s"), ("group.char_values_calls", "count"),
     ("group.translation_s", "s"), ("group.translation_calls", "count"),
     ("group.other_s", "s"),
     ("spectral.group_spectrum_s", "s"), ("spectral.transform_points", "count"),
     ("spectral.correlation_s", "s"), ("spectral.correlation_calls", "count"),
     ("spectral.bounds_s", "s"), ("spectral.bounds_calls", "count"),
     ("spectral.katai_s", "s"), ("spectral.katai_candidates", "count"),
     ("spectral.katai_evaluations", "count"), ("spectral.other_s", "s"),
     ("alignment.reduce_s", "s"), ("alignment.gram_oracle_s", "s"),
     ("alignment.other_s", "s"),
     ("primes.count_s", "s"), ("primes.lambda_balance_s", "s"),
     ("primes.other_s", "s"),
     ("learning.ngd_train_s", "s"), ("learning.ngd_steps", "count"),
     ("learning.ngd_step_ms", "ms"), ("learning.csq_s", "s"),
     ("learning.csq_samples", "count"), ("learning.other_s", "s"),
     ("cli.self_s", "s")]
    + [(f"cli.{sub}_s", "s") for sub in CLI_SUBCOMMANDS]
    + [("trace.overhead", "ratio"), ("trace.job_s", "s"),
       ("trace.self_total_s", "s")]
)

# metrics that hold a self time; their sum over a pass is trace.self_total_s
SELF_TIME_METRICS = tuple(sorted(set(GROUPS.values()))) + tuple(
    f"{layer}.other_s" for layer in LAYERS if layer != "cli") + ("cli.self_s",)

# metrics that must repeat exactly across traced runs with the same seed
EXACT_COUNTS = ("arith.sieve_calls", "group.digit_cells",
                "spectral.transform_points", "learning.ngd_steps",
                "spectral.katai_candidates")


def _digit_cells(kind):
    def count(bound, result):
        rows, cols = result.shape
        return {"cells": rows * cols, "key": (kind, repr(bound["self"]), rows, cols)}
    return count


# function -> counts taken from its arguments and return value
COUNTERS = {
    "arith.sieve": lambda b, r: {"entries": int(b["limit"]),
                                 "key": (b["kind"], int(b["limit"]))},
    "arith.dump_table": lambda b, r: {"bytes": os.path.getsize(b["path"])},
    "arith.load_table": lambda b, r: {"bytes": os.path.getsize(b["path"])},
    "group.GroupShape.digits_matrix": _digit_cells("digits"),
    "group.GroupShape.char_digits_matrix": _digit_cells("char_digits"),
    "spectral.group_spectrum": lambda b, r: {"points": int(r.coeffs.size)},
    "spectral.inverse_transform": lambda b, r: {"points": int(r.size)},
    "spectral.katai_witness": lambda b, r: {"candidates": int(r.candidates),
                                            "evaluations": int(r.evaluations)},
    "learning.ngd_train": lambda b, r: {"steps": int(b["cfg"].T)},
    "learning.csq_bad_event_rate": lambda b, r: {"samples": int(r["samples"])},
    "cli.run_command": lambda b, r: {"sub": str(list(b["argv"])[0])},
}


def _is_traceable(obj, module_name):
    return (callable(obj) and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == module_name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            return result

        return traced

    def install(self, package):
        """Wrap the layer modules of `package` (the imported mspec)."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(obj, module.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
        shape_cls = package.group.GroupShape
        for attr, obj in list(vars(shape_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                setattr(shape_cls, attr, self._wrap(f"group.GroupShape.{attr}", obj))


def derive_metrics(spans, job_s):
    """Per-layer metrics of one traced pass, from its spans.

    Returns (metrics, touched) where touched names the metrics the pass
    produced a span for; the others are reported as n/a with value 0.
    """
    n = len(spans)
    child = [0.0] * n
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    owner = [None] * n
    values = {name: 0.0 for name, _ in PER_LAYER}
    touched = set()
    for i, (name, start, end, parent, _op, _counts) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer == "cli":
            owner[i] = "cli.self_s"
        elif name in GROUPS:
            owner[i] = GROUPS[name]
        else:
            j = parent
            while j >= 0 and not spans[j][0].startswith(layer + "."):
                j = spans[j][3]
            owner[i] = owner[j] if j >= 0 else f"{layer}.other_s"
        values[owner[i]] += (end - start) - child[i]
        touched.add(owner[i])

    def spans_of(*names):
        return [s for s in spans if s[0] in names]

    def counts_of(*names):
        # spans whose call raised carry no counts
        return [s[5] for s in spans_of(*names) if s[5] is not None]

    sieves = counts_of("arith.sieve")
    entries = sum(c["entries"] for c in sieves)
    distinct = {c["key"]: c["entries"] for c in sieves}
    cells = counts_of("group.GroupShape.digits_matrix",
                      "group.GroupShape.char_digits_matrix")
    cell_total = sum(c["cells"] for c in cells)
    distinct_cells = {c["key"]: c["cells"] for c in cells}
    katai = counts_of("spectral.katai_witness")
    steps = sum(c["steps"] for c in counts_of("learning.ngd_train"))
    counts = {
        "arith.sieve_calls": len(sieves),
        "arith.sieve_entries": entries,
        "arith.sieve_redundancy": entries / sum(distinct.values()) if sieves else 0.0,
        "arith.io_bytes": sum(c["bytes"]
                              for c in counts_of("arith.dump_table", "arith.load_table")),
        "group.digit_cells": cell_total,
        "group.digit_redundancy": (cell_total / sum(distinct_cells.values())
                                   if cells else 0.0),
        "group.char_values_calls": len(spans_of("group.char_values")),
        "group.translation_calls": len(spans_of("group.GroupShape.translation")),
        "spectral.transform_points": sum(
            c["points"] for c in counts_of("spectral.group_spectrum",
                                           "spectral.inverse_transform")),
        "spectral.correlation_calls": len(spans_of("spectral.correlation")),
        "spectral.bounds_calls": sum(1 for s in spans
                                     if GROUPS.get(s[0]) == "spectral.bounds_s"),
        "spectral.katai_candidates": sum(c["candidates"] for c in katai),
        "spectral.katai_evaluations": sum(c["evaluations"] for c in katai),
        "learning.ngd_steps": steps,
        "learning.ngd_step_ms": 1000.0 * values["learning.ngd_train_s"] / steps
        if steps else 0.0,
        "learning.csq_samples": sum(c["samples"]
                                    for c in counts_of("learning.csq_bad_event_rate")),
    }
    values.update(counts)
    for name, value in counts.items():
        if value:
            touched.add(name)
    for span in spans_of("cli.run_command"):
        key = f"cli.{span[5]['sub']}_s" if span[5] else None
        if key in values:
            values[key] += span[2] - span[1]
            touched.add(key)
    values["trace.self_total_s"] = sum(values[m] for m in SELF_TIME_METRICS)
    values["trace.job_s"] = job_s
    touched.update(("trace.self_total_s", "trace.job_s", "trace.overhead"))
    return values, touched
