"""Every exported name resolves, and so does every function the layer tracer
of perfbench/tracer.py wraps: the tracer fails on a missing name at install
time, which only a traced benchmark run would otherwise show.  And the
choice between a model's monomial maps and its LinComb maps stays behind
the model layer."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module", ["species_forge", "species_forge.setcomb",
                                    "species_forge.exactlin"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_tracer_boundaries_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    mods = {m: importlib.import_module(f"species_forge.{m}") for m in tracer.MODULES}
    boundaries = tracer.boundaries()
    assert boundaries
    missing = [(mod, fname) for mod, fname, *_ in boundaries
               if not callable(getattr(mods[mod], fname, None))]
    assert missing == []


def test_only_the_model_layer_reads_monomial():
    # every other module takes the structure maps through
    # SpeciesModel.structure_maps()
    readers = {path.name for path in (ROOT / "src" / "species_forge").glob("*.py")
               if re.search(r"\.monomial\b", path.read_text())}
    assert readers <= {"species.py", "models.py"}


def test_one_zero_and_one_one():
    # the `c is ONE` fast paths (convolve, series._coproduct, the had:
    # structure maps) hold only while every model returns exactlin's objects
    owners = {path.name for path in (ROOT / "src" / "species_forge").glob("*.py")
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              for name in ast.walk(target)
              if isinstance(name, ast.Name) and name.id in ("ZERO", "ONE")}
    assert owners == {"exactlin.py"}
