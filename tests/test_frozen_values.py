"""Matrices and complexes are values.

Outside ``klab.intmat`` a matrix is built by a constructor (``IntMatrix``,
``identity``, ``zeros``, ``from_rows``, ``from_blocks`` or the algebra
operators) and never written afterwards, so the sparse-entry invariant
(only nonzero entries, all inside the shape) is kept in one module and a
stored matrix can be shared.  The same holds for the ranks, matrices,
idempotents and positions a ``ChainComplex`` or ``ChainMap`` holds, and
for the letters of a ``GRMatrix``: only its own methods set or fill
them.  ``klab.chaincore`` relies on this when it hands one memoised dual
or tensor to every caller.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "klab"
DICT_WRITES = {"pop", "update", "setdefault", "clear", "popitem"}
HELD = {"diff", "mats", "idem", "positions", "ranks", "letters", "d_total", "p_total",
        "pos_total", "total", "offsets", "size", "_lists", "index", "c_degrees"}


def _targets(node):
    """Assignment and ``del`` targets of ``node``, tuples unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo.extend(t.elts)
        elif isinstance(t, ast.Starred):
            todo.append(t.value)
        else:
            yield t


def _is_value(node) -> bool:
    """``node`` reads a matrix's ``.entries``, or a held dict of anything
    but ``self``: only a value's own constructor writes into those."""
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr == "entries":
        return True
    return node.attr in HELD and not (isinstance(node.value, ast.Name)
                                      and node.value.id == "self")


def value_writes(tree):
    """Line numbers of every write into ``.entries``, and of every write
    into or rebinding of a held dict on anything but ``self``."""
    for node in ast.walk(tree):
        for t in _targets(node):
            if isinstance(t, ast.Subscript):
                t = t.value
            if _is_value(t):
                yield t.lineno
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in DICT_WRITES and _is_value(node.func.value)):
            yield node.lineno


def test_no_matrix_is_written_outside_intmat():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "intmat.py"
             for line in sorted(value_writes(ast.parse(path.read_text(encoding="utf-8"))))]
    assert found == []


def test_guard_flags_every_kind_of_write():
    writes = [
        "m.entries[(0, 0)] = 1",
        "m.entries[k] += 1",
        "del m.entries[k]",
        "a, m.entries[k] = 1, 2",
        "m.entries.pop(k)",
        "m.entries.update(other)",
        "m.entries.setdefault(k, 1)",
        "m.entries.clear()",
        "m.entries.popitem()",
        "m.entries = {}",
        "cx.diff = {}",
        "f.mats = {}",
        "cx.idem = None",
        "cx.positions = {0: ()}",
        "other.positions: dict = {}",
        "del cx.positions",
        "cx.ranks = {}",
        "cx.diff[1] = m",
        "f.mats[0] += m",
        "del cx.idem[0]",
        "a, cx.positions[0] = 1, ()",
        "cx.ranks[2] = 1",
        "cx.diff.pop(1)",
        "f.mats.update(other)",
        "cx.idem.setdefault(0, m)",
        "cx.positions.clear()",
        "cx.ranks.popitem()",
        "m.letters[a] = x",
        "m.letters.pop(a)",
        "m.letters = {}",
        "cx.d_total = m",
        "cx.p_total = None",
        "cx.pos_total = ()",
        "f.total = m",
        "cx.offsets[0] = 1",
        "cx.size = 0",
        "cx._lists = ()",
        "layout.index[t] = 0",
        "layout.c_degrees = []",
    ]
    for src in writes:
        assert list(value_writes(ast.parse(src))) == [1], src
    reads = [
        "self.diff = {}",
        "self.positions = dict(positions)",
        "v = m.entries.get(k, 0)",
        "entries[k] = v",
        "out = dict(m.entries)",
        "self.ranks[n] = off",
        "self.mats.update(other)",
        "m = cx.diff.get(1)",
        "layout.blocks[n].sort()",
    ]
    for src in reads:
        assert list(value_writes(ast.parse(src))) == [], src
