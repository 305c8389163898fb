import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_uncalled_counts_names_attributes_and_imports_but_not_strings(tmp_path, capsys):
    package = tmp_path / "src" / "rnaloop"
    package.mkdir(parents=True)
    (tmp_path / "perfbench" / "tests").mkdir(parents=True)
    (package / "ops.py").write_text(
        '__all__ = ["only_listed"]\n'
        "LIMIT = 3\n"
        "def only_listed(): pass\n"
        "def called_here(): pass\n"
        "def helper(): return called_here()\n"
        "def read_as_attribute(): pass\n"
        "def imported(): pass\n"
        "def only_tested(): pass\n"
        "def _private(): pass\n"
        "class Unused: pass\n"
    )
    (package / "user.py").write_text("from .ops import imported\n")
    (tmp_path / "perfbench" / "run.py").write_text("import rnaloop.ops as ops\nops.read_as_attribute()\n")
    (tmp_path / "perfbench" / "tests" / "test_x.py").write_text("from rnaloop.ops import only_tested\n")
    assert _load("uncalled").main(["uncalled.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "ops.LIMIT", "ops.only_listed", "ops.helper", "ops.only_tested", "ops.Unused",
    ]
