"""DESIGN.md cites only names that exist.

Every backticked ``A.b`` or ``A.b()`` in DESIGN.md whose ``A`` is a class
or a module defined under ``src/repro`` must name something defined
there: a def, a class attribute or field, a ``self.b`` assignment in one
of the class's methods (or a base class's), or a module-level name. A
deleted mechanism is written without backticks. File names
(``cluster.py``, ``graph.npz``) are not names.

Every backticked ``path.py::name`` (a source module under ``src/repro``
or a test module, ``name`` a module-level name, then members through
``.`` or ``::``, a test id's ``[...]`` and a call's ``()`` dropped)
must name a file that exists and names that are defined in it.

A ``src/`` name that only tests call is deleted together with its tests
(DESIGN.md §4c): every public ``def`` under ``src/repro`` is named by the
program, a benchmark or an example, or §4c lists it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

_CITED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\(\))?`")
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_PATH_CITED = re.compile(r"`((?:[\w.]+/)*\w+\.py)::([^`]+)`")
_FILE_SUFFIXES = {"py", "md", "json", "jsonl", "txt", "npz", "npy", "run",
                  "lsgr", "fasta", "fastq", "gfa", "toml", "yml"}


def _targets(node: ast.AST) -> list[str]:
    """The plain names an assignment statement binds."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)]
    return []


def _definitions() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Class name → its members; module name → its module-level names."""
    members: dict[str, set[str]] = defaultdict(set)
    bases: dict[str, set[str]] = defaultdict(set)
    modules: dict[str, set[str]] = defaultdict(set)
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        module = path.stem
        for node in tree.body if module != "__init__" else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                modules[module].add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules[module].update(
                    (alias.asname or alias.name).split(".")[0]
                    for alias in node.names)
            modules[module].update(_targets(node))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            bases[cls.name].update(base.id for base in cls.bases
                                   if isinstance(base, ast.Name))
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    members[cls.name].add(node.name)
                members[cls.name].update(_targets(node))
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self" \
                        and isinstance(node.ctx, ast.Store):
                    members[cls.name].add(node.attr)
    for cls in list(members):
        seen, todo = set(), [cls]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(bases.get(name, ()))
        members[cls] = set().union(*(members.get(name, set())
                                     for name in seen))
    return members, modules


def test_design_cites_only_names_that_exist():
    members, modules = _definitions()
    text = _FENCE.sub(lambda fence: "\n" * fence.group().count("\n"),
                      (ROOT / "DESIGN.md").read_text())
    missing = []
    for match in _CITED.finditer(text):
        owner, name = match.groups()
        if name in _FILE_SUFFIXES or (owner not in members
                                      and owner not in modules):
            continue
        if name not in members.get(owner, set()) | modules.get(owner, set()):
            line = text.count("\n", 0, match.start()) + 1
            missing.append(f"{owner}.{name} (line {line})")
    assert missing == [], missing


def _path_cited(path: str) -> Path | None:
    """The file a cited ``path.py`` is: from the repository root, under
    ``src/repro``, or a test module named by its file name alone."""
    for candidate in (ROOT / path, SRC / path, ROOT / "tests" / path):
        if candidate.is_file():
            return candidate
    return None


def _file_names(path: Path) -> tuple[set[str], dict[str, set[str]]]:
    """A file's module-level names, and each of its classes' members."""
    tree = ast.parse(path.read_text())
    names: set[str] = set()
    classes: dict[str, set[str]] = defaultdict(set)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        names.update(_targets(node))
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                classes[cls.name].add(node.name)
            classes[cls.name].update(_targets(node))
    return names, classes


def test_design_path_citations_name_what_exists():
    members, _ = _definitions()
    text = _FENCE.sub(lambda fence: "\n" * fence.group().count("\n"),
                      (ROOT / "DESIGN.md").read_text())
    missing = []
    cited = 0
    for match in _PATH_CITED.finditer(text):
        cited += 1
        path, chain = match.group(1), re.sub(r"\s+", "", match.group(2))
        line = text.count("\n", 0, match.start()) + 1
        found = _path_cited(path)
        if found is None:
            missing.append(f"{path} (line {line})")
            continue
        names, classes = _file_names(found)
        parts = re.sub(r"\[[^\]]*\]|\(\)", "", chain).replace("::", ".")
        first, *rest = parts.split(".")
        owner, ok = first, first in names
        for name in rest:
            ok = ok and name in classes.get(owner, set()) | members.get(owner, set())
            owner = name
        if not ok:
            missing.append(f"{path}::{chain} (line {line})")
    assert cited >= 20
    assert missing == [], missing


_WORD = re.compile(r"[A-Za-z_]\w*")


def _public_defs(tree: ast.Module) -> Counter:
    """How often a module defines each public function or method name (a
    method of a public class)."""
    defs: Counter = Counter()
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) \
            and not node.name.startswith("_") else [node]
        defs.update(member.name for member in body
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                    and not member.name.startswith("_"))
    return defs


def test_every_public_def_is_named_outside_the_tests():
    """A public ``def`` is named when its name is a word of another
    ``src/`` module, a benchmark or an example, or of its own module
    beyond its definitions; otherwise §4c lists it (in backticks)."""
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("\n## 4c."):]
    section = section[:section.index("\n## ", 1)]
    listed = {word for span in re.findall(r"`([^`]+)`", section)
              for word in _WORD.findall(span)}
    files = [*SRC.rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py"),
             *(ROOT / "examples").rglob("*.py")]
    words = {path: Counter(_WORD.findall(path.read_text())) for path in files}
    unnamed = []
    for path in SRC.rglob("*.py"):
        for name, count in _public_defs(ast.parse(path.read_text())).items():
            if name in listed or words[path][name] > count or any(
                    other[name] for where, other in words.items()
                    if where != path):
                continue
            unnamed.append(f"{path.relative_to(SRC)}::{name}")
    assert unnamed == [], unnamed
