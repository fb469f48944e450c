"""The library holds no code that only the tests call.

Every module-level function and class under ``src/incalg`` must be loaded
by name somewhere in ``src/`` outside its own definition: as a name, as an
attribute, or as an imported name (so a package export counts). A name that
nothing in the library reaches is test scaffolding and belongs in the tests.
"""

import ast
import pathlib

import incalg

SRC = pathlib.Path(incalg.__file__).parent


def _used_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_module_level_definition_has_a_caller_in_src():
    defined = []  # (module path, name)
    uses = []     # (module path, top-level name the use sits in or None, name)
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                owner = top.name
                defined.append((rel, owner))
            uses.extend((rel, owner, name) for name in _used_names(top))
    unused = sorted(f"{rel}:{name}" for rel, name in defined
                    if not any(n == name and (r, o) != (rel, name)
                               for r, o, n in uses))
    assert defined
    assert unused == []
