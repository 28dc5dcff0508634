import ast
import contextlib
import io
import re
from pathlib import Path

import qga

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qga"

# the query system: keywords in; a query graph, its SPARQL and its answers out
PUBLIC = [
    "load_triples",
    "KnowledgeGraph",
    "build_lexicon",
    "Lexicon",
    "train_transe",
    "TrainConfig",
    "load_table",
    "save_table",
    "EmbeddingTable",
    "PipelineConfig",
    "answer_keywords",
    "PipelineResult",
    "CandidateResult",
    "emit_sparql",
    "evaluate_bgp",
    "StructuredQuery",
    "QgaError",
]

# module-level names that no code in the package calls, and why they stay
UNCALLED = {
    # writes the instance format whose reader `qga solve` uses
    "dump_instance",
}


def test_every_public_name_resolves():
    assert qga.__all__ == PUBLIC
    namespace = {}
    exec("from qga import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(PUBLIC)


def test_every_module_level_definition_is_used_by_the_package():
    # tests and benchmarks keep their references; src/ holds what it runs
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used and name not in UNCALLED)
    assert unused == []


def test_readme_python_example_prints_what_the_readme_shows(monkeypatch):
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Python API") :]
    code, shown = re.search(r"```python\n(.*?)```\n.*?```text\n(.*?)```", section, re.S).groups()
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == shown
