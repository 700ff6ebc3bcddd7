import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

# Names that perfbench/spans.py traces but the package no longer defines (ROADMAP item 1);
# their spans read 0.  No other traced name may go missing.
ABSENT_SPANS = {"smhd.ioutil.write_timeseries_csv", "smhd.ioutil.write_snapshot_csv",
                "smhd.fv._axis_flux", "smhd.fv._axis_extreme_speeds", "smhd.fv._max_speed",
                "smhd.fv._pad_x", "smhd.sweep.evaluate_point"}


def _trees(directory):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / directory).glob("*.py"))}


def test_every_class_field_is_read():
    # a field that neither the package nor the tests ever load only echoes its inputs
    source = _trees("src/smhd")
    loaded = {node.attr for tree in [*source.values(), *_trees("tests").values()]
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls.name}.{item.target.id}"
              for path, tree in source.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in loaded]
    assert not unread, f"class fields that nothing reads: {unread}"


def _owner(dotted):
    """The module or the module-level class that a dotted name denotes."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, name = dotted.rpartition(".")
        return getattr(importlib.import_module(module), name)


def test_benchmark_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(owner, attr) for owner, attr, _, _ in spans.SPANS] + [spans.STATE_HOOK[:2]]
    absent = {f"{owner}.{attr}" for owner, attr in names if not hasattr(_owner(owner), attr)}
    assert absent <= ABSENT_SPANS, f"traced names that no longer exist: {absent - ABSENT_SPANS}"


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=60).stdout
    assert out.splitlines() == ["shock", "True"]
