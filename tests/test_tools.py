import ast
import importlib.util
import re
from pathlib import Path

import numpy as np

from rnaloop import autodiff as ad

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rnaloop"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_uncalled_counts_names_attributes_and_imports_but_not_strings(tmp_path, capsys):
    package = tmp_path / "src" / "rnaloop"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
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
    (tmp_path / "tests" / "test_x.py").write_text("from rnaloop.ops import only_tested\n")
    assert _load("uncalled").main(["uncalled.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "ops.LIMIT", "ops.only_listed", "ops.helper", "ops.only_tested", "ops.Unused",
    ]


def test_uncalled_reports_public_methods_nothing_calls(tmp_path, capsys):
    package = tmp_path / "src" / "rnaloop"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "ops.py").write_text(
        "class Box:\n"
        "    def called(self): pass\n"
        "    def called_by_perfbench(self): pass\n"
        "    def only_tested(self): pass\n"
        "    def only_read(self): pass\n"
        "    def _private(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    @property\n"
        "    def unread(self): return 2\n"
        "    @staticmethod\n"
        "    def make(): return Box()\n"
        "def user(box):\n"
        "    box.called()\n"
        "    return box.size, box.only_read\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "import rnaloop.ops as ops\nops.user(ops.Box.make())\nops.Box().called_by_perfbench()\n")
    # a package test calling a method or reading a property is not a caller
    (tmp_path / "tests" / "test_x.py").write_text(
        "from rnaloop.ops import Box\nBox().only_tested()\nBox().unread\n")
    assert _load("uncalled").main(["uncalled.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["ops.Box.only_tested", "ops.Box.only_read", "ops.Box.unread"]


def test_uncalled_reports_defaulted_parameters_no_call_passes(tmp_path, capsys):
    package = tmp_path / "src" / "rnaloop"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "ops.py").write_text(
        "def f(a, by_position=1, by_keyword=2, never=3, *, only_kw=4, kw_never=5): pass\n"
        "def g(x=0): pass\n"
        "def spread(a=0, b=1): pass\n"
        "class Box:\n"
        "    def __init__(self, size=1, colour=None): pass\n"
        "    def fill(self, level=0, unused=1): pass\n"
        "    @staticmethod\n"
        "    def make(n=1): pass\n"
        "def user(box):\n"
        "    f(0, 1, by_keyword=2, only_kw=4)\n"
        "    spread(*[1, 2])\n"
        "    box.fill(3)\n"
        "    return Box(2)\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "import rnaloop.ops as ops\nops.Box.make(1)\nops.g(**{'x': 1})\nops.user(None)\n")
    # a package test passing a parameter is not a caller
    (tmp_path / "tests" / "test_x.py").write_text(
        "from rnaloop.ops import f\nf(0, 1, 2, 3, kw_never=5)\n")
    assert _load("uncalled").main(["uncalled.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "ops.f(never)", "ops.f(kw_never)", "ops.Box.__init__(colour)", "ops.Box.fill(unused)",
    ]


def test_uncalled_reports_dataclass_fields_no_call_or_replace_passes(tmp_path, capsys):
    package = tmp_path / "src" / "rnaloop"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "ops.py").write_text(
        "from dataclasses import dataclass, replace\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class World:\n"
        "    grid: int = 32\n"
        "    size: int = 1\n"
        "    colour: str = 'red'\n"
        "    shade: float = 0.5\n"
        "    name: ClassVar[str] = 'w'\n"
        "@dataclass\n"
        "class Plain:\n"
        "    need: int\n"
        "    extra: int = 0\n"
        "def moved(w):\n"
        "    return replace(w, colour='blue')\n"
        "def user():\n"
        "    return World(16, size=2), 'shade'.replace('a', 'b')\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "import rnaloop.ops as ops\nops.moved(ops.user())\nops.Plain(1)\n")
    # a package test passing a field is not a caller
    (tmp_path / "tests" / "test_x.py").write_text(
        "from rnaloop.ops import World, Plain\nWorld(1, 2, 'x', 0.1)\nPlain(1, 2)\n")
    assert _load("uncalled").main(["uncalled.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["ops.World.__init__(shade)", "ops.Plain.__init__(extra)"]


def test_uncalled_counts_the_benchmark_tests_as_callers(tmp_path, capsys):
    # what the benchmark's tests call is pinned with the benchmark; the
    # package's tests still do not count
    package = tmp_path / "src" / "rnaloop"
    package.mkdir(parents=True)
    (tmp_path / "perfbench" / "tests").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (package / "ops.py").write_text(
        "def pinned(): pass\n"
        "def only_tested(): pass\n"
        "def shift(x, stride=1, pad=0): pass\n"
        "class Box:\n"
        "    def pinned_method(self): pass\n"
    )
    (tmp_path / "perfbench" / "tests" / "test_bench.py").write_text(
        "from rnaloop import ops\nops.pinned()\nops.shift(0, 1)\nops.Box().pinned_method()\n")
    (tmp_path / "tests" / "test_x.py").write_text(
        "from rnaloop import ops\nops.only_tested()\nops.shift(0, 1, 2)\n")
    assert _load("uncalled").main(["uncalled.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["ops.only_tested", "ops.shift(pad)"]


def test_uncalled_leaves_out_dataclass_fields_that_init_does_not_take(tmp_path, capsys):
    package = tmp_path / "src" / "rnaloop"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "ops.py").write_text(
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Slot:\n"
        "    value: int = 0\n"
        "    cache: dict = field(default=None, init=False)\n"
        "    size: int = 1\n"
        "    shown: int = field(default=2, init=True)\n"
    )
    # the second position is size's, as cache takes none
    (tmp_path / "perfbench" / "run.py").write_text("import rnaloop.ops as ops\nops.Slot(1, 2)\n")
    assert _load("uncalled").main(["uncalled.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["ops.Slot.__init__(shown)"]


def test_uncalled_lists_only_the_names_a_roadmap_item_will_call(capsys):
    # a new public name, method or default that nothing calls fails here;
    # each one below waits for the ROADMAP item that gives it its caller
    assert _load("uncalled").main(["uncalled.py"]) == 0
    assert capsys.readouterr().out.split() == [
        "autodiff.mul",  # item 4: the Meta-SGD step alpha * g
        "autodiff.coarse_cross_entropy",  # item 4: the proxy of kNN coarse labels
        "autodiff.prediction_entropy",  # item 2: the TENT proxy
        "presets.seg_main",  # item 6: segmentation with clicks
        "presets.seg_controller",  # item 6
        "presets.control_mains",  # item 6: the densification control
        "shifts.shifted_world",  # item 6: the cross-dataset shift
        "signals.click_annotations",  # item 6
        "signals.coarse_label",  # item 6: the coarse-label signal
        "taskgen.gen_dense_segmentation",  # item 6
        "autodiff.ParamSet.clone",  # item 2: TTO with params="all"
    ]


def test_code_lines_leaves_out_blanks_comments_and_docstrings_and_totals_paths(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        "    return (X +\n"
        "            2)\n"
    )
    (package / "b.py").write_text('class C:\n    """Doc."""\n    y = "not a docstring"\n')
    (package / "notes.txt").write_text("x = 1\n")
    single = tmp_path / "single.py"
    single.write_text("import os\n\n\nprint(os.sep)\n")
    code_lines = _load("code_lines")
    assert code_lines.main(["code_lines.py", str(package), str(single)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.rsplit(maxsplit=1) for line in lines[:-1]]
    assert rows == [
        [str(package / "a.py"), "4"],
        [str(package / "b.py"), "2"],
        [str(single), "2"],
        ["total", "8"],
    ]
    assert lines[-1] == "settable values: 0 parameters, 0 fields, 0 defaults (0)"


def test_code_lines_counts_parameters_dataclass_fields_and_their_defaults(tmp_path, capsys):
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "def f(a, b=1, *args, c, d=2, **kw):  # a b c d; defaults b d\n"
        "    def inner(x=0): pass  # x; default x\n"
        "    return lambda y=1: y  # a lambda is not counted\n"
        "class K:\n"
        "    def m(self, p, q=3): pass  # p q; default q\n"
        "    @classmethod\n"
        "    def n(cls, r): pass  # r\n"
        "    @staticmethod\n"
        "    def s(t): pass  # t\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    u: int  # field\n"
        "    v: int = 1  # field; default\n"
        "    w: ClassVar[int] = 2  # not a field\n"
        "    x = 3  # not a field\n"
        "@dataclasses.dataclass\n"
        "class E:\n"
        "    z: float = 0.0  # field; default\n"
        "class NotData:\n"
        "    y: int = 0  # not a dataclass\n"
    )
    code_lines = _load("code_lines")
    assert code_lines.settable_values(source) == (9, 3, 6)
    (tmp_path / "m.py").write_text(source)
    assert code_lines.main(["code_lines.py", str(tmp_path / "m.py"), str(tmp_path / "m.py")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "settable values: 18 parameters, 6 fields, 12 defaults (36)")


def test_conv_crossover_sizes_match_the_budget_rule_and_totals_pick_a_side():
    crossover = _load("conv_crossover")
    for n, c, h in [(8, 24, 32), (32, 16, 8), (64, 8, 8), (16, 16, 12), (2, 1, 4)]:
        size = crossover.row_bytes(n, c, h)
        assert ad._chunk((n, c, h, h), 3, 1) == (1 if size > ad._ROWS_BUDGET else n)
        assert ad._row_matrix(np.zeros((n, c, h, h)), 3, 1)[0].nbytes == size
    timed = [(100, 1.0, 2.0), (200, 3.0, 1.0), (300, 5.0, 2.0)]
    assert crossover.threshold_totals(timed) == {0: 5.0, 100: 4.0, 200: 6.0, 300: 9.0}


def test_only_errors_decides_what_an_integer_is_and_makes_generators():
    # one rule for integer arguments (errors.is_int / need_int) and one maker
    # of generators from seeds (errors.seeded), so that a numpy integer or a
    # bad seed meets the same check at every entry
    banned = re.compile(r"type\([^()]*\) is (not )?int\b|default_rng\(|SeedSequence\(")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if banned.search(line)]
    assert found == []


def test_only_serialize_decides_the_file_format():
    # one version (serialize.VERSION) covers a file's layout, its header keys
    # and its spec, so no other module keeps a format number of its own or
    # JSON-encodes a spec into the header
    banned = re.compile(r"^\s*\w*(FORMAT|VERSION)\w*\s*(:[^=]+)?=[^=]|\bjson\b")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "serialize.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if banned.search(line)]
    assert found == []


def test_only_the_layer_interpreter_applies_layers_in_nets():
    # both networks describe their layers as data and run them through
    # nets._layer, so no other function of nets.py calls a layer's op
    ops = {"conv2d", "matmul", "avgpool2", "global_avg_pool", "add_bias"}
    tree = ast.parse((PACKAGE / "nets.py").read_text())
    calls = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            calls[fn.name] = {
                node.func.attr for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "ad"
                and node.func.attr in ops}
    assert calls.get("_layer") == ops
    assert {name: found for name, found in calls.items() if found and name != "_layer"} == {}


def test_only_autodiff_decides_what_a_frozen_weight_is():
    # a parameter set is frozen as a whole, and a caller tells a frozen call
    # by the set's one mapping of constants, so no module but autodiff.py
    # names the constant class
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "autodiff.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Name) and node.id == "_Constant")
             or (isinstance(node, ast.Attribute) and node.attr == "_Constant")
             or (isinstance(node, ast.alias) and node.name == "_Constant")]
    assert found == []


def test_only_the_log_softmax_takes_class_logs():
    # a loss over classes takes its logs from _log_softmax's logp and from
    # the class-set core's logsumexp, never of a softmax probability, which
    # underflows to 0 at a logit gap of about 745
    logs = {"log", "log1p", "log2", "log10"}
    tree = ast.parse((PACKAGE / "autodiff.py").read_text())
    owners = {getattr(top, "name", "<module>")
              for top in tree.body for node in ast.walk(top)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
              and node.func.attr in logs}
    assert owners == {"_log_softmax", "_class_nll"}
