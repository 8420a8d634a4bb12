"""The benchmark harness traces library functions by name and calls the
library through module attributes: every name it looks up must exist, so a
library change that removes one fails here and not only in the harness's
own self-test."""
import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# methods the harness calls on objects the library returns, by the class
# that defines them: an attribute call the module walk below cannot resolve
RETURNED_METHODS = {"rotor_fields": ("adjoint", "AdjointSet")}


def _tracer_layers():
    """``LAYERS`` of ``perfbench/tracer.py``, loaded from the file as it is
    (it imports only the standard library at module level)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def _harness_reads():
    """(module, attribute) of every igamotor name the harness's files read:
    each name imported from an igamotor module, and each ``mod.attr`` with
    ``mod`` bound to an igamotor module by ``import igamotor`` or ``from
    igamotor import mod``; and the names of every method called as
    ``obj.name(...)``."""
    reads, calls = set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names
                               if _in_igamotor(alias.name))
            elif isinstance(node, ast.ImportFrom) and _in_igamotor(node.module):
                for alias in node.names:
                    reads.add((node.module, alias.name))
                    full = "%s.%s" % (node.module, alias.name)
                    if _is_module(full):
                        modules[alias.asname or alias.name] = full
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                reads.add((modules[node.value.id], node.attr))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls.add(node.func.attr)
    return reads, calls


def _in_igamotor(name):
    return (name or "").split(".")[0] == "igamotor"


def _is_module(name):
    """Whether ``name`` imports as a module (not an attribute of one)."""
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


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


def test_every_name_the_harness_reads_resolves_in_igamotor():
    reads, calls = _harness_reads()
    # the walk sees the harness's module reads (workloads.py's set-up)
    assert ("igamotor.optim", "MachineSolver") in reads
    missing = [("%s.%s" % read) for read in sorted(reads)
               if not hasattr(importlib.import_module(read[0]), read[1])]
    for meth in sorted(calls & set(RETURNED_METHODS)):
        module, cls_name = RETURNED_METHODS[meth]
        if not callable(getattr(getattr(importlib.import_module("igamotor." + module),
                                        cls_name, None), meth, None)):
            missing.append("%s.%s.%s" % (module, cls_name, meth))
    assert not missing, missing
