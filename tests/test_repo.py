"""Repository-level checks: the README's library sketch and command lines run
as written, scripts/source_size.py counts lines the way its docstring says, and
src/axxz holds no function or class that only the tests call."""
import ast
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no Library sketch block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_readme_command_lines_run(capsys):
    from axxz.cli import main

    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", readme, re.S)
    assert block is not None, "README has no Command line block"
    lines = [line for line in block.group(1).splitlines() if line.startswith("axxz ")]
    assert len(lines) >= 5
    for line in lines:
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        # a comment that is a value, or "prints <value>", is the exact stdout
        value = comment.strip().removeprefix("prints ")
        if re.fullmatch(r"\S+", value) and re.match(r"[-+\d]", value):
            assert out == value + "\n", line


def test_source_size_script(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    script = [sys.executable, str(ROOT / "scripts" / "source_size.py")]
    (tmp_path / "sample.py").write_text(
        '"""Module\ndocstring."""\n# comment\n\nx = (1,\n     2)  # trailing\n\n\n'
        'def f():\n    """Doc."""\n    return "not a docstring"\n')
    proc = subprocess.run(script + ["--src", str(tmp_path)], capture_output=True, text=True,
                          timeout=60, check=True, env=env)
    assert proc.stdout.splitlines()[1:] == [f"{'sample.py':<16} {11:>6} {4:>6}",
                                            f"{'total':<16} {11:>6} {4:>6}"]

    proc = subprocess.run(script, capture_output=True, text=True, timeout=60, check=True, env=env)
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    modules = sorted(p.name for p in (ROOT / "src" / "axxz").glob("*.py"))
    assert [r[0] for r in rows] == modules + ["total"]
    for name, lines, code in rows[:-1]:
        assert int(lines) == len((ROOT / "src" / "axxz" / name).read_text().splitlines())
        assert 0 < int(code) < int(lines)
    assert rows[-1][1:] == [str(sum(int(r[k]) for r in rows[:-1])) for k in (1, 2)]


def _named(tree):
    """Every name a tree mentions: Names, attributes, import aliases and string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from filter(None, (node.name.rpartition(".")[2], node.asname))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_library_names_have_a_caller_outside_the_tests():
    """Every public top-level function and class of src/axxz is named somewhere in
    src/axxz, scripts/ or perfbench/ outside its own definition, so the library
    holds no code that only the tests call; such code belongs in the tests.

    Some names stay alive only through perfbench/: theta_m, functional_form_check,
    build_hamiltonian and diagonalize_symmetric. ROADMAP items 7, 8 and 11 say
    when they go.
    """
    trees = {path: ast.parse(path.read_text())
             for folder in ("src/axxz", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _named(tree))
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items() if path.parent.name == "axxz"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and named[node.name] == Counter(_named(node))[node.name]
    ]
    assert unused == []
