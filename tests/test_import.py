"""Importing the package stays cheap.

Every CLI command and library caller pays for `import arrinv`. The result
records are NamedTuples and the stateful classes plain classes, so the
import generates no code and pulls in neither `dataclasses` nor `inspect`;
the CLI and its `argparse` load only when a command runs.
"""

import pathlib
import subprocess
import sys
from typing import ForwardRef

import arrinv

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_code_generators_and_no_cli():
    # -S keeps site hooks of the environment from loading modules of their own
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import arrinv; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'argparse', "
            "'arrinv.cli') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_record_annotations_are_evaluated():
    # typing.NamedTuple compiles each deferred (string) annotation into a
    # ForwardRef; `from __future__ import annotations` would make them all so
    modules = [module for name, module in list(sys.modules.items())
               if name.startswith("arrinv.")]
    records = {name: cls for module in modules for name, cls in vars(module).items()
               if isinstance(cls, type) and issubclass(cls, tuple)
               and hasattr(cls, "_fields") and cls.__module__ == module.__name__}
    assert len(records) == 13
    assert [f"{name}.{field}" for name, cls in records.items()
            for field, kind in cls.__annotations__.items()
            if isinstance(kind, ForwardRef)] == []
