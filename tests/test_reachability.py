"""Every public top-level function and class in the package, and every
public method and property of those classes, is used by the program itself,
not only by tests.

A name counts as used when code under src/, scripts/ or perfbench/ refers
to it, outside its own definition and outside an __all__ list, as a name,
an attribute, an imported name or a string constant (perfbench wraps
functions by attribute name). Members are matched by their bare name, so a
method counts as used when any attribute of that name is. The few names
kept on purpose for the tests are listed below, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "medeir"
PROGRAM_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

_PAPER_STAGES = ("records the paper's stage hyperparameters; tests build "
                 "configs from it")
KEPT_FOR_TESTS = {
    "autodiff.grad_check": "finite-difference gradient checks (criterion 03)",
    "autodiff.tensor": "float64 inputs with an explicit dtype for criterion 03",
    "autodiff.div": "the quotient op that criterion 03 grad-checks",
    "model.adaptive_log_probs": "full-distribution reference for target_log_probs "
                                "(criterion 05)",
    "evaluation.load_report": "reads saved reports back in the CLI tests",
    "fixtures.fixture_tokenizer": "bundled tokenizers for criteria 01 and 02",
    "fixtures.mini_corpus_texts": "bundled corpus texts for criterion 02",
    "smoke.synthetic_topic_pairs": "retrieval data for criterion 09",
    "smoke.bigram_vocabulary": "synthetic language for criterion 06",
    "smoke.bigram_sequences": "synthetic language for criterion 06",
    "smoke.windowed_masked_ce": "length-extrapolation probe for criterion 06",
    "training.StageConfig.mlm_defaults": _PAPER_STAGES,
    "training.StageConfig.contrastive_defaults": _PAPER_STAGES,
    "training.StageConfig.hard_negative_defaults": _PAPER_STAGES,
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _names_in(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _references(node: ast.AST) -> set[str]:
    """Names node refers to; the references of a top-level definition, or of
    a method, to its own name do not count."""
    if isinstance(node, ast.ClassDef):
        names = set()
        for part in (*node.bases, *node.keywords, *node.decorator_list, *node.body):
            names |= _references(part)
    else:
        names = _names_in(node)
    if isinstance(node, _DEFS):
        names.discard(node.name)
    return names


def _program_references() -> set[str]:
    """Names referred to anywhere in the program's code."""
    refs = set()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if not _is_all(node):
                    refs |= _references(node)
    return refs


def test_every_public_definition_is_reachable():
    refs = _program_references()
    unused = sorted(key for key, name in _public_definitions().items()
                    if name not in refs and key not in KEPT_FOR_TESTS)
    assert not unused, ("public names that only tests (or nothing) use; delete "
                        f"them or list them in KEPT_FOR_TESTS: {unused}")


def test_kept_names_are_defined_and_unreachable():
    definitions = _public_definitions()
    refs = _program_references()
    stale = sorted(key for key in KEPT_FOR_TESTS
                   if key not in definitions or definitions[key] in refs)
    assert not stale, f"undefined or reachable; drop them from KEPT_FOR_TESTS: {stale}"
