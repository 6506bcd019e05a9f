"""Spans around the calls into each hmkit layer, installed from outside the library.

`install` wraps the public entry points named in LAYERS and rebinds every
module global that refers to one of them, because freecons, gadget and
semilat import functions such as `find_homs` and `product` by name and
patching only the defining module would miss their calls.  Per-element
hot paths (`OperationTable.apply`, term evaluation) are left alone.

Spans are kept in memory as [name, start, end, parent, job, count] and
aggregated by `summarize`; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from typing import Callable

# layer -> wrapped function -> how to read its work count from the result
# (None: calls and time only).  Functions outside this table run inside the
# span of their caller.
LAYERS: dict[str, dict[str, Callable | None]] = {
    "structures": {
        "product": lambda r: r.size,
        "power": None,
        "disjoint_union": None,
        "induced_substructure": None,
        "find_isomorphism": None,
        "connected_components": None,
        "structure_from_json": None,
        "Homomorphism.__post_init__": None,
    },
    "homsearch": {
        "find_homs": len,
        "count_homs": None,
        "is_homomorphism": None,
        "polymorphisms": None,
        "find_retraction": None,
    },
    "semilat": {
        "is_partial_semilattice": lambda r: int(type(r).__name__ == "Refusal"),
        "decompose_product_hom": None,
        "meet_lookup": None,
        "largest_element": None,
        "classify_meet_operation": None,
    },
    "freecons": {
        "free_algebra": lambda r: r.algebra.size,
        "free_structure": lambda r: len(r.structure.relations["R"].tuples),
        "compute_H": None,
        "collapse": None,
        "verify_lemma22": None,
        "verify_claims": None,
        "hm_evidence": None,
        "verify_certificate": None,
        "load_algebra": None,
    },
    "gadget": {
        "gadget_transform": lambda r: len(r.relations["R"].tuples),
        "match_components_to_powers": None,
    },
    "identlang": {
        "parse": None,
        "saturate": lambda r: len(r.identities),
        "hm_term_check": None,
        "sl_interp_search": None,
        "linear_fragment": None,
    },
    "cli": {"main": None},
}

NAME, START, END, PARENT, JOB, COUNT = range(6)
ERROR = "error"


class Tracer:
    """Collects spans for the job currently running."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[COUNT] = ERROR
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def install(tracer: Tracer, modules: dict, layers: dict = LAYERS) -> None:
    """Wrap every function named in `layers` and rebind each module global,
    in any of `modules` (name -> module), that refers to one of them.

    A dotted name `Class.method` wraps the method on the class; it is
    reported under the class name, e.g. `structures.Homomorphism`.
    """
    originals: dict[int, Callable] = {}
    for layer, functions in layers.items():
        module = modules[layer]
        for qualname, counter in functions.items():
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, attr)
            label = f"{layer}.{owner_name or attr}"
            wrapped = tracer.wrap(label, fn, counter)
            setattr(owner, attr, wrapped)
            if not owner_name:
                originals[id(fn)] = wrapped
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in originals:
                setattr(module, attr, originals[id(value)])


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self time, summed work count and errors."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "count": 0, "errors": 0})
        row["calls"] += 1
        row["self_s"] += span[END] - span[START] - child_time[i]
        if span[COUNT] == ERROR:
            row["errors"] += 1
        elif span[COUNT] is not None:
            row["count"] += span[COUNT]
    return out

