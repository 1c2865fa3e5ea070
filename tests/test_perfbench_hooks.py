"""The benchmark's tracer (perfbench/tracer.py) wraps gaborflow functions that
it names in ``TARGETS``: each name must resolve, and the span of
``quantize_quadratic`` reads the grid from its second positional argument."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    for module, attr, _ in targets:
        owner = importlib.import_module(module)
        if "." in attr:
            # "Class.method" is patched on the class itself
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), (module, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)


def test_quantize_quadratic_takes_M_then_g():
    from gaborflow.metaplectic import quantize_quadratic

    assert list(inspect.signature(quantize_quadratic).parameters)[:2] == ["M", "g"]
