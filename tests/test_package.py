import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]


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
