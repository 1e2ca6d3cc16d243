"""The benchmark's traced run finds every projrep name it patches.

perfbench/layers.py wraps functions under the names their callers look them
up by and reads two lru_cache counters, so renaming or deleting one of them
breaks the benchmark.  Its own tests are outside the default test paths;
this one is not."""

import os

from projrep import cli, modsym

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_layers_install_and_restore_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from tracing import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer, cli)
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    for cached in (modsym.partitions, modsym.x_class_value_matrix):
        cached.cache_info()
