"""Repository-level checks: the README's library sketch and command lines run
as written, and scripts/source_size.py counts lines the way its docstring says."""
import os
import re
import shlex
import subprocess
import sys
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
