"""The layer entry points the traced runs wrap, installed from outside.

Every probe names a module, an attribute path inside it and the span name
``<layer>.<entry point>``; the layer is the module family the code lives
in.  :func:`install` replaces each attribute with a :class:`Tracer`
wrapper, so no file of the program changes.  Names imported into another
module (``learn_header_fingerprints``, ``evaluate_candidates``,
``build_offnet_graph``) are patched where they are looked up.

``stages.<name>`` spans come from a stand-in ``build_offnet_graph`` that
returns the program's graph with each stage's ``run`` callable wrapped.
Importing the program is itself a span, ``startup.import``, so the
module-level work a process does before its first call is attributed too,
and the daemon watcher's wait for its next poll is ``serve.poll_wait``.
"""

from __future__ import annotations

import dataclasses
import importlib
import os

from spans import Tracer

#: (module, attribute path, span name).
PROBES = (
    ("repro.datasets.fileview", "FileDataset.scan", "datasets.scan"),
    ("repro.datasets.fileview", "FileDataset.ip2as", "datasets.ip2as"),
    ("repro.bgp.ip2as", "IPToASMap.from_ribs", "bgp.from_ribs"),
    (
        "repro.core.validation",
        "CertificateValidator.validate_snapshot",
        "validation.validate_snapshot",
    ),
    ("repro.core.pipeline", "OffnetPipeline.header_rules", "header_fingerprint.header_rules"),
    ("repro.core.pipeline", "learn_header_fingerprints", "header_fingerprint.learn"),
    ("repro.core.stages.offnet", "evaluate_candidates", "signals.evaluate_candidates"),
    ("repro.core.confirm", "evaluate_candidates", "signals.evaluate_candidates"),
    ("repro.core.stages.cache", "DiskCache.get", "cache.get"),
    ("repro.core.stages.cache", "DiskCache.put", "cache.put"),
    ("repro.core.executor", "SerialExecutor.map_snapshots", "executor.map_snapshots"),
    ("repro.core.pipeline", "OffnetPipeline.merge_outcomes", "pipeline.merge_outcomes"),
    ("repro.serve.daemon", "ServeDaemon.handle_query", "serve.handle_query"),
    ("repro.serve.ingest", "DeltaIngestor.ingest_once", "serve.ingest_once"),
    ("repro.core.footprint_index", "DurableFootprintIndex.__init__", "footprint_index.open"),
    ("repro.core.footprint_index", "DurableFootprintIndex.fold", "footprint_index.fold"),
    ("repro.core.footprint_index", "DurableFootprintIndex.commit", "footprint_index.commit"),
)


def _count_rows(seen: set[int]):
    """Rows of each distinct store a ``FileDataset.scan`` call returned
    (LRU hits return a store already counted)."""

    def after(args, result):
        if id(result) in seen:
            return None
        seen.add(id(result))
        return {"datasets.rows": result.store.stats().tls_rows}

    return after


def _after_hooks() -> dict:
    """Counter increments booked when an entry point returns."""

    def prefixes(args, result):
        return {"bgp.prefixes": result.prefix_count}

    def cache_get(args, result):
        return {"cache.get.hits" if result is not None else "cache.get.misses": 1}

    def cache_put(args, result):
        cache, key = args[0], args[1]
        return {"cache.put.bytes": os.path.getsize(cache._path(key))}

    def ingest(args, result):
        return {
            "serve.ingest.ingested": len(result.ingested),
            "serve.ingest.skipped": len(result.skipped),
        }

    return {
        "datasets.scan": _count_rows(set()),
        "bgp.from_ribs": prefixes,
        "cache.get": cache_get,
        "cache.put": cache_put,
        "serve.ingest_once": ingest,
    }


#: Span details: the path a daemon query asked for.
_DETAILS = {"serve.handle_query": lambda args: args[1]}


def _patch(owner, attribute: str, tracer: Tracer, name: str, after) -> None:
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    detail = _DETAILS.get(name)
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(tracer.wrap(raw.__func__, name, after, detail)))
    else:
        setattr(owner, attribute, tracer.wrap(raw, name, after, detail))


def _wrap_graph(pipeline_module, tracer: Tracer) -> None:
    original = pipeline_module.build_offnet_graph

    def build_offnet_graph():
        graph = original()
        stages = [
            dataclasses.replace(stage, run=tracer.wrap(stage.run, f"stages.{stage.name}"))
            for stage in graph.stages.values()
        ]
        return type(graph)(stages)

    pipeline_module.build_offnet_graph = build_offnet_graph


def _wrap_poll_wait(daemon_cls, tracer: Tracer) -> None:
    """Each daemon's watcher waits on its stop event between polls; that
    wait is the time a landed snapshot sits unseen."""
    original = daemon_cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._stop.wait = tracer.wrap(self._stop.wait, "serve.poll_wait")

    daemon_cls.__init__ = __init__


def _import_all(names: list[str]) -> dict:
    return {name: importlib.import_module(name) for name in names}


def install(tracer: Tracer, entry_modules: tuple[str, ...] = ()) -> None:
    """Import the program (every probe's module and ``entry_modules``) and
    wrap every probe's entry point with ``tracer``."""
    modules = tracer.wrap(_import_all, "startup.import")(
        [module for module, _, _ in PROBES] + list(entry_modules)
    )
    hooks = _after_hooks()
    for module_name, path, name in PROBES:
        owner = modules[module_name]
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        _patch(owner, attribute, tracer, name, hooks.get(name))
    _wrap_graph(modules["repro.core.pipeline"], tracer)
    _wrap_poll_wait(modules["repro.serve.daemon"].ServeDaemon, tracer)
