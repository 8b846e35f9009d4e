"""The benchmark's tracer finds every binding it patches.

bench/tracing.py wraps package functions by (module, attribute path). A name
it lists that the package renames or deletes would only fail the benchmark's
own tests, so this checks each one where the tracer looks it up.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_binding_is_owned_by_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # install() also wraps prompt._forward, which has no span of its own
    bindings = [b for spans in tracing.SPANS.values() for b in spans]
    bindings.append(("hsgppt.prompt", "_forward"))
    missing = []
    for module, path in bindings:
        owner, attr = tracing._resolve(module, path)
        if attr not in owner.__dict__:
            missing.append(f"{module}:{path}")
    assert missing == []
