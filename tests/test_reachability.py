"""Every public top-level function and class in the package, and every
public method and property of those classes, is used by the program itself,
not only by tests.

The program is the code under src/, scripts/ and perfbench/. A module-level
name counts as used only through a reference to it in the package: an
attribute of its module (`ad.sub`, `medeir.cli.dispatch`), an import of it
(`from .autodiff import sub`), a bare use in its own module outside its own
definition, or a string constant in perfbench/ (perfbench wraps functions by
attribute name). So `np.tanh` or a local variable named `sub` does not keep
`autodiff.tanh` or `autodiff.sub`. Methods are matched by their bare name,
because a receiver's type is unknown: a method counts as used when any
attribute, name or string of that name is. __all__ lists do not count.

What only tests use lives in tests/support.py, and every public name there
is used by a test module, or by support itself. The package keeps only the
few names that acceptance bodies call as `ad.<name>`, since edits to
tests/test_acceptance.py are limited to its import lines; they are listed
below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "medeir"
PROGRAM_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")
STRING_DIRS = (ROOT / "perfbench",)
TESTS = ROOT / "tests"
SUPPORT = TESTS / "support.py"
ACCEPTANCE = TESTS / "test_acceptance.py"

_ACCEPTANCE_OP = "acceptance bodies call it as ad.<name>"
KEPT_FOR_TESTS = {
    "autodiff.tensor": _ACCEPTANCE_OP,
    "autodiff.sub": _ACCEPTANCE_OP,
    "autodiff.div": _ACCEPTANCE_OP,
    "autodiff.tanh": _ACCEPTANCE_OP,
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _public_definitions() -> dict[str, str]:
    """'module.name' -> name for each public top-level def or class, and
    'module.Class.name' -> name for each public method or property of a
    public class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCS) and not member.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{member.name}"] = member.name
    return found


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target]))


def _package_module(dotted: str | None, level: int, in_package: bool) -> str | None:
    """The package module an import names: 'autodiff' for `.autodiff` inside
    the package or `medeir.autodiff` anywhere; None for any other module."""
    if level == 1 and in_package:
        return dotted
    if level == 0 and dotted and dotted.startswith("medeir."):
        return dotted.removeprefix("medeir.")
    return None


def _module_aliases(tree: ast.AST, in_package: bool) -> dict[str, str]:
    """Local name -> package module, for each import of a module itself
    (`from . import autodiff as ad`, `from medeir import cli`)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parent = node.module if node.level == 0 else None
            if (node.level == 1 and in_package and node.module is None) \
                    or parent == "medeir":
                for alias in node.names:
                    if alias.name in _MODULES:
                        aliases[alias.asname or alias.name] = alias.name
    return aliases


def _attribute_module(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The package module an expression names: an alias, or medeir.<module>."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "medeir" and node.attr in _MODULES):
        return node.attr
    return None


def _units(node: ast.stmt):
    """(part, names) for each part of a top-level statement whose references
    to names do not count: a definition's to its own name (a recursive
    call), and a class's to itself or, in a method, to that method."""
    if isinstance(node, ast.ClassDef):
        for part in (*node.bases, *node.keywords, *node.decorator_list, *node.body):
            yield part, {node.name} | ({part.name} if isinstance(part, _DEFS) else set())
    else:
        yield node, {node.name} if isinstance(node, _DEFS) else set()


def _program_references() -> tuple[set[str], set[str]]:
    """('module.name' for every module-level name the program refers to
    through the package, every bare name, attribute and string it uses)."""
    qualified, bare = set(), set()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            own = path.stem if path.parent == PACKAGE else None
            aliases = _module_aliases(tree, own is not None)
            for node in tree.body:
                if _is_all(node):
                    continue
                for part, skipped in _units(node):
                    q, b = _references(part, own, aliases, directory in STRING_DIRS)
                    qualified |= q - {f"{m}.{n}" for m in _MODULES for n in skipped}
                    bare |= b - skipped
    return qualified, bare


def _references(node: ast.AST, own: str | None, aliases: dict[str, str],
                strings: bool) -> tuple[set[str], set[str]]:
    """The (qualified, bare) references of one part of a file of module
    own (None outside the package)."""
    qualified, bare = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            bare.add(sub.id)
            if own:
                qualified.add(f"{own}.{sub.id}")
        elif isinstance(sub, ast.Attribute):
            bare.add(sub.attr)
            module = _attribute_module(sub.value, aliases)
            if module:
                qualified.add(f"{module}.{sub.attr}")
        elif isinstance(sub, ast.ImportFrom):
            module = _package_module(sub.module, sub.level, own is not None)
            for alias in sub.names:
                bare.add(alias.name)
                if module:
                    qualified.add(f"{module}.{alias.name}")
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            bare.add(sub.value)
            if strings:
                qualified |= {f"{m}.{sub.value}" for m in _MODULES}
    return qualified, bare


def _used(key: str, name: str, qualified: set[str], bare: set[str]) -> bool:
    """A module-level name by a package reference, a method by its bare name."""
    return key in qualified if key.count(".") == 1 else name in bare


def test_every_public_definition_is_reachable():
    qualified, bare = _program_references()
    unused = sorted(key for key, name in _public_definitions().items()
                    if not _used(key, name, qualified, bare)
                    and key not in KEPT_FOR_TESTS)
    assert not unused, ("public names that only tests (or nothing) use; delete "
                        f"them or list them in KEPT_FOR_TESTS: {unused}")


def test_kept_names_are_defined_and_unreachable():
    definitions = _public_definitions()
    qualified, bare = _program_references()
    stale = sorted(key for key in KEPT_FOR_TESTS
                   if key not in definitions
                   or _used(key, definitions[key], qualified, bare))
    assert not stale, f"undefined or reachable; drop them from KEPT_FOR_TESTS: {stale}"


def test_kept_names_are_acceptance_ops():
    """A kept name stays only while an acceptance body calls it as ad.<name>."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    called = {f"autodiff.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "ad"}
    wrong = sorted(key for key, reason in KEPT_FOR_TESTS.items()
                   if key not in called or reason != _ACCEPTANCE_OP)
    assert not wrong, f"not called as ad.<name> by acceptance bodies: {wrong}"


def _support_names() -> set[str]:
    """Each public top-level def, class or assigned name of tests/support.py."""
    names = set()
    for node in ast.parse(SUPPORT.read_text(encoding="utf-8")).body:
        if isinstance(node, _DEFS):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def _support_uses() -> set[str]:
    """Names a test module imports from support or reads as support.<name>,
    and names support itself uses outside their own definitions."""
    used = set()
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path == SUPPORT:
            for node in tree.body:
                for part, skipped in _units(node):
                    used |= {sub.id for sub in ast.walk(part)
                             if isinstance(sub, ast.Name)} - skipped
            continue
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.level == 0 \
                    and sub.module == "support":
                used |= {alias.name for alias in sub.names}
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id == "support"):
                used.add(sub.attr)
    return used


def test_every_support_name_is_used():
    unused = sorted(_support_names() - _support_uses())
    assert not unused, f"tests/support.py names that no test uses; delete them: {unused}"
