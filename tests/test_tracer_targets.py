"""The benchmark's tracer wraps klab calls by name; a rename must fail here."""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                      "tracer.py")


def load_tracer():
    # loaded from its path without registering it, so perfbench stays untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    missing = []
    for name, owner, attr in load_tracer().TARGETS:
        # install() reads a method from the class dict and a function by attribute
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(found):
            missing.append(name)
    assert not missing, missing
