"""The benchmark tracer patches tapkit by name; every name it uses must exist.

``perfbench/tracer.py`` wraps each entry of ``LINALG_OPS``, ``FUNCTIONS``
and ``METHODS`` with ``getattr``, so deleting or renaming one of them
crashes every traced benchmark run.  This loads the tracer by path (it is
not a package) and resolves each name without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import tapkit.linalg as la
from tapkit.model import TransParserModel

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_linalg_ops_exist():
    missing = [op for op in load_tracer().LINALG_OPS if not callable(getattr(la, op, None))]
    assert missing == []


def test_function_paths_resolve():
    missing = []
    for path, _ in load_tracer().FUNCTIONS:
        module_name, attr = path.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(path)
    assert missing == []


def test_methods_exist_on_model():
    missing = [attr for attr, _ in load_tracer().METHODS
               if attr not in TransParserModel.__dict__]
    assert missing == []
