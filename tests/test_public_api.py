"""The README's Layout section is klab's public API: one list of names per
module, and the names removed from it.  This keeps the lists in step with
``src/klab``: every listed name resolves, every public name the source
defines is listed, and no removed name resolves again.

A module's list is a ``### `klab.<module>``` heading and its bullets.  A
bullet ``- `Class`: `a`, `b``` lists a class and the names its own body
defines; any other bullet lists top-level names.  A removed name is the
head of a bullet under ``### Removed names``, up to its first colon:
``module.name`` or ``module.Class.name``, or ``module.f(p=, q=)`` for the
parameters ``p`` and ``q`` that ``f`` lost.
"""

import ast
import importlib
import inspect
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src", "klab")
NAME = re.compile(r"`([^`]+)`")
_ABSENT = object()


def _layout():
    """The README's Layout section, split at its ``###`` headings."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    sections = {}
    for part in text.split("\n### ")[1:]:
        head, _, body = part.partition("\n")
        bullets = re.findall(r"^- (.*(?:\n  .*)*)", body, re.M)
        sections[head.strip()] = [" ".join(b.split()) for b in bullets]
    return sections


def listed_api():
    """``{module: {name: members}}`` from the README; members is None for a
    top-level name that is not a class with listed members."""
    api = {}
    for head, bullets in _layout().items():
        match = re.fullmatch(r"`klab\.(\w+)`", head)
        if not match:
            continue
        names = api[match.group(1)] = {}
        for bullet in bullets:
            cls = re.match(r"`(\w+)`: (.*)", bullet)
            if cls:
                names[cls.group(1)] = set(NAME.findall(cls.group(2)))
            else:
                names.update(dict.fromkeys(NAME.findall(bullet)))
    return api


def _public(name):
    return not name.startswith("_")


def _bound(node):
    """The names a statement of a module or class body binds with a value."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return [node.target.id]
    return []


def defined_api():
    """``{module: {name: members}}`` of every public name that ``src/klab``
    defines at the top level of a module, members the public names a
    class's own body defines (None for a class that defines none)."""
    api = {}
    for file in sorted(os.listdir(SRC)):
        if not file.endswith(".py") or file == "__init__.py":
            continue
        with open(os.path.join(SRC, file), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = api[file[:-3]] = {}
        for node in tree.body:
            for name in filter(_public, _bound(node)):
                members = None
                if isinstance(node, ast.ClassDef):
                    members = {m for n in node.body for m in _bound(n) if _public(m)} or None
                names[name] = members
    return api


def removed_names():
    """``(reference, parameters)`` per name under "Removed names"."""
    out = []
    for bullet in _layout()["Removed names"]:
        head = bullet.split("`:", 1)[0] + "`"
        for ref in NAME.findall(head):
            match = re.fullmatch(r"([\w.]+)(?:\((.*)\))?", ref)
            assert match, f"unreadable removed name {ref!r}"
            params = match.group(2)
            out.append((match.group(1), params and [p.strip().rstrip("=")
                                                   for p in params.split(",")]))
    return out


def test_every_listed_name_resolves():
    missing = []
    for module, names in listed_api().items():
        mod = importlib.import_module(f"klab.{module}")
        for name, members in names.items():
            if not hasattr(mod, name):
                missing.append(f"{module}.{name}")
                continue
            missing += [f"{module}.{name}.{m}" for m in sorted(members or ())
                        if not hasattr(getattr(mod, name), m)]
    assert not missing, f"listed in the README but not in src/klab: {missing}"


def test_every_public_name_is_listed():
    listed, defined = listed_api(), defined_api()
    assert set(listed) == set(defined), "one README list per module"
    unlisted = []
    for module, names in defined.items():
        for name, members in names.items():
            if name not in listed[module]:
                unlisted.append(f"{module}.{name}")
                continue
            unlisted += [f"{module}.{name}.{m}"
                         for m in sorted((members or set()) - (listed[module][name] or set()))]
    assert not unlisted, f"defined in src/klab but not listed in the README: {unlisted}"
    extra = [f"{module}.{name}" for module, names in listed.items()
             for name in names if name not in defined[module]]
    extra += [f"{module}.{name}.{m}" for module, names in listed.items()
              for name, members in names.items() if name in defined[module]
              for m in sorted((members or set()) - (defined[module][name] or set()))]
    assert not extra, f"listed in the README but not defined there: {extra}"


def test_no_removed_name_resolves():
    removed = removed_names()
    assert removed
    back = []
    for ref, params in removed:
        module, *path = ref.split(".")
        assert path and os.path.isfile(os.path.join(SRC, f"{module}.py")), \
            f"removed name {ref!r} names no klab module"
        obj = importlib.import_module(f"klab.{module}")
        for part in path:
            obj = getattr(obj, part, _ABSENT)
            if obj is _ABSENT:
                break
        else:
            if params is None or set(params) & set(inspect.signature(obj).parameters):
                back.append(ref)
    assert not back, f"removed names that resolve again: {back}"
