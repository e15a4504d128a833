"""The README's examples run: each command line exits 0 and prints, the
table's CSV excerpt is what ``table`` prints, and the library example
prints what its comments say."""

import ast
import shlex
from pathlib import Path

from floqtess.cli import main
from floqtess.floquet import CodeParams

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_section() -> str:
    section = README.read_text().split("\n## Command line\n", 1)[1]
    return section.split("\n## Library\n", 1)[0]


def test_command_lines_run(tmp_path, monkeypatch, capsys):
    # The section's first block holds the commands, its second the CSV
    # excerpt; "> file" writes stdout to that file, which later lines read.
    commands, _, excerpt = command_line_section().split("```")[1:4]
    monkeypatch.chdir(tmp_path)
    printed = {}
    for line in commands.splitlines():
        if not line.startswith("floqtess "):
            continue
        words = shlex.split(line)[1:]
        target = None
        if words[-2:-1] == [">"]:
            words, target = words[:-2], words[-1]
        code = main(words)
        out = capsys.readouterr().out
        assert code == 0, line
        assert out, line
        if target is not None:
            (tmp_path / target).write_text(out)
        printed[line] = out
    assert len(printed) == 10
    table = printed["floqtess table --genus 2..2 --orientable true --mode auto"].splitlines()
    rows = [row for row in excerpt.strip().splitlines() if row != "..."]
    assert len(rows) == 3
    for row in rows:
        assert row in table


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def assigned(target: ast.expr, namespace: dict):
    """The value an assignment left in ``target``: a name's value, or the
    tuple of the values of a tuple's names."""
    if isinstance(target, ast.Tuple):
        return tuple(assigned(elt, namespace) for elt in target.elts)
    return namespace[target.id]


def commented_results(block: str) -> list:
    """Run ``block`` statement by statement; return ``(value, comment)`` for
    each statement followed by a comment on its last line.  The value of an
    assignment is its target's, a tuple's read name by name."""
    lines = block.splitlines()
    namespace: dict = {}
    out = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            expr = ast.Expression(stmt.value)
            value = eval(compile(expr, str(README), "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            value = assigned(stmt.targets[0], namespace) if isinstance(stmt, ast.Assign) else None
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
        if tail.startswith("#"):
            out.append((value, tail[1:].strip()))
    return out


def test_commented_results_reads_tuple_targets():
    # A tuple-unpacking line gives the tuple of its names' values; the next
    # statement reads those names.
    block = "q, r = divmod(7, 2)  # (3, 1)\ntotal = q + r  # 4\n"
    assert commented_results(block) == [((3, 1), "(3, 1)"), (4, "4")]


def render(value) -> str:
    """The value as the README's comments write it."""
    if isinstance(value, CodeParams):
        return f'[[{value.n},{value.k},{value.d}]], d_source "{value.d_source}"'
    if isinstance(value, (list, tuple)):
        return f"{len(value)} signatures"
    return repr(value)


def test_library_comments_match_the_code():
    results = commented_results(library_block())
    assert [comment for _, comment in results] == [
        "48",
        "4",
        "2",
        '[[16,4,2]], d_source "exact"',
        "22 signatures",
        "True",
    ]
    for value, comment in results:
        assert render(value) == comment
