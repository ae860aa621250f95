"""The benchmark in perfbench/ times gkit by patching names it looks up by
(owner, attribute); a name renamed or deleted in gkit breaks a traced run."""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def test_wrapped_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = spans.gkit_modules()
    missing = [(owner, attr) for owner, attr, _, _ in spans._targets(modules)
               if attr not in owner.__dict__]
    assert missing == []
    assert "structure_polys" in modules["witt"].__dict__
    assert "_cache" in modules["witt"].__dict__
