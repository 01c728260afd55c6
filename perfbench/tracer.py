"""Spans around calls into born_kernel, recorded from the benchmark's side.

`Instrumented` replaces each traced function with a timing wrapper in
every born_kernel module that binds it, so calls made by one layer into
another (the CLI into formats, derive_representation into the checks via
its `ALL_CHECKS` tuple, canonical_form into relabel) are spans too.
`Observable.__post_init__` is wrapped on the class, which times the
construction and validation of every observable wherever it happens.

Spans are kept in memory and written as JSON lines (name, start, end,
parent id, counts) when the run ends.  Per-layer figures are self
times: a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median

MB = 1e6


def _ordering_counts(args, kwargs, result):
    n = len(result.refs)
    # n x n bool relation plus the two float32 operands of the
    # transitivity product.
    return {"events": n, "matrix_mb": 9 * n * n / MB}


def _witness_counts(args, kwargs, result):
    return {"witnesses": len(result.witnesses)}


def _pairs_counts(args, kwargs, result):
    return {"pairs": len(result["pairs"])}


def _decoded_ordering_counts(args, kwargs, result):
    n = len(result.refs)
    return {"matrix_mb": 9 * n * n / MB}


def _reachable_counts(args, kwargs, result):
    prep = args[0]
    index_range = args[2] if len(args) > 2 else kwargs.get("index_range", 4)
    return {"assignments": index_range ** len(prep), "states": len(result)}


# (module, function, span name, counts from (args, kwargs, result))
TARGETS = (
    ("formats", "ordering_to_json", "formats.ordering_encode", _pairs_counts),
    ("formats", "ordering_from_json", "formats.ordering_decode", _decoded_ordering_counts),
    ("formats", "family_to_json", "formats.family_codec", None),
    ("formats", "family_from_json", "formats.family_codec", None),
    ("formats", "assignment_to_json", "formats.assignment_encode", None),
    ("formats", "quadruple_from_json", "formats.quadruple_decode", None),
    ("ordering", "induced_ordering", "ordering.induced", _ordering_counts),
    ("ordering", "outcome_count_ordering", "ordering.outcome_count", _ordering_counts),
    ("ordering", "check_transitivity", "ordering.transitivity", _witness_counts),
    ("ordering", "check_separation", "ordering.separation", _witness_counts),
    ("ordering", "check_dominance", "ordering.dominance", _witness_counts),
    ("ordering", "check_equivalence", "ordering.equivalence", _witness_counts),
    ("ordering", "null_events", "ordering.null_events", None),
    ("representation", "derive_representation", "representation.derive", None),
    ("representation", "verify_representation", "representation.verify", None),
    ("representation", "uniqueness_search", "representation.uniqueness", None),
    ("quantum", "spectral_decompose", "quantum.decompose", None),
    ("quantum", "weight", "quantum.weight", None),
    ("neutrality", "canonical_form", "neutrality.canonical_form", None),
    ("neutrality", "relabel", "neutrality.relabel", None),
    ("erasure", "reachable_set", "erasure.reachable", _reachable_counts),
)

MODULES = ("cli", "erasure", "formats", "neutrality", "numeric", "ordering",
           "quantum", "representation")

CHECK_SPANS = ("ordering.transitivity", "ordering.separation",
               "ordering.dominance", "ordering.equivalence")


class Tracer:
    """In-memory span recorder for one single-threaded traced round."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record["counts"].update(count(args, kwargs, result))
            return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        return out

    def recheck_seconds(self) -> float:
        """Time of the axiom checks that derive_representation runs itself."""
        derive_ids = {s["id"] for s in self.spans if s["name"] == "representation.derive"}
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] in CHECK_SPANS and s["parent"] in derive_ids)

    def count_sum(self, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.spans)

    def count_max(self, key: str) -> float:
        return max((s["counts"].get(key, 0) for s in self.spans), default=0)


class Instrumented:
    """Context manager that installs the tracer's wrappers and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Instrumented":
        modules = [importlib.import_module("born_kernel")] + [
            importlib.import_module(f"born_kernel.{m}") for m in MODULES
        ]
        # Keyed by identity: the same function object may be bound under
        # its name in several modules.
        wrapped = {}
        for module, attr, name, count in TARGETS:
            fn = getattr(importlib.import_module(f"born_kernel.{module}"), attr)
            wrapped[id(fn)] = self.tracer.wrap(fn, name, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])
                elif attr == "ALL_CHECKS":
                    self._set(mod, attr, tuple(wrapped.get(id(f), f) for f in value))
        quantum = importlib.import_module("born_kernel.quantum")
        self._set(quantum.Observable, "__post_init__",
                  self._observable_init(quantum.Observable.__post_init__))
        return self

    def _observable_init(self, init):
        tracer = self.tracer

        @functools.wraps(init)
        def traced(obs):
            with tracer.span("quantum.observable") as record:
                init(obs)
            k = len(obs.spectral_pairs)
            record["counts"]["projector_mb"] = k * obs.dim ** 2 * 16 / MB
        return traced

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round (cli.* subprocess medians,
    cli.startup_s and trace.overhead_s are added by the harness)."""
    self_s = tracer.self_times()

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))
    assignments = tracer.count_sum("assignments")
    states = tracer.count_sum("states")
    return {
        "cli.self_s": cli_self,
        "formats.ordering_encode_s": t("formats.ordering_encode"),
        "formats.ordering_decode_s": t("formats.ordering_decode"),
        "formats.family_codec_s": t("formats.family_codec"),
        "formats.assignment_encode_s": t("formats.assignment_encode"),
        "formats.quadruple_decode_s": t("formats.quadruple_decode"),
        "formats.ordering_file_mb": tracer.count_max("ordering_file_mb"),
        "formats.pairs": tracer.count_sum("pairs"),
        "ordering.induced_s": t("ordering.induced"),
        "ordering.outcome_count_s": t("ordering.outcome_count"),
        "ordering.transitivity_s": t("ordering.transitivity"),
        "ordering.separation_s": t("ordering.separation"),
        "ordering.dominance_s": t("ordering.dominance"),
        "ordering.equivalence_s": t("ordering.equivalence"),
        "ordering.null_events_s": t("ordering.null_events"),
        "ordering.events": tracer.count_sum("events"),
        "ordering.witnesses": tracer.count_sum("witnesses"),
        "ordering.matrix_mb": tracer.count_max("matrix_mb"),
        "representation.derive_s": t("representation.derive"),
        "representation.derive_recheck_s": tracer.recheck_seconds(),
        "representation.verify_s": t("representation.verify"),
        "representation.uniqueness_s": t("representation.uniqueness"),
        "quantum.decompose_s": t("quantum.decompose"),
        "quantum.observable_s": t("quantum.observable"),
        "quantum.weight_s": t("quantum.weight"),
        "quantum.projector_mb": tracer.count_max("projector_mb"),
        "neutrality.canonical_form_s": t("neutrality.canonical_form"),
        "neutrality.relabel_s": t("neutrality.relabel"),
        "erasure.reachable_s": t("erasure.reachable"),
        "erasure.assignments": assignments,
        "erasure.states": states,
        "erasure.useful_ratio": states / assignments if assignments else 0.0,
    }


def subprocess_medians(durations: dict[str, list[float]]) -> dict[str, float]:
    """cli.<command>_s: median untraced subprocess wall per subcommand."""
    return {
        f"cli.{cmd.replace('-', '_')}_s": median(durations[cmd]) if durations.get(cmd) else 0.0
        for cmd in ("gen-rich", "check", "derive", "canon")
    }
