"""The benchmark harness traces library functions by name: every name it
looks up must exist, so a library change that removes one fails here and
not only in the harness's own self-test."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_layers():
    """``LAYERS`` of ``perfbench/tracer.py``, loaded from the file as it is
    (it imports only the standard library at module level)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_layer_resolves_in_igamotor():
    layers = _tracer_layers()
    assert layers
    missing = []
    for module, attr in layers:
        mod = importlib.import_module("igamotor." + module)
        if "." in attr:
            # Tracer.install wraps the method in the class's own __dict__
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append("%s.%s" % (module, attr))
    assert not missing, missing
