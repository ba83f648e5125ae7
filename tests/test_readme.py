"""README's quick-start blocks run and show what they return."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_blocks():
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def _shown(lines, stmt):
    """The result a block shows for an expression statement: its inline
    comment, or a comment line right after it."""
    line = lines[stmt.end_lineno - 1]
    if "#" in line[stmt.end_col_offset :]:
        return line.split("#", 1)[1].strip()
    following = lines[stmt.end_lineno].strip() if stmt.end_lineno < len(lines) else ""
    return following[1:].strip() if following.startswith("#") else None


BLOCKS = _quick_start_blocks()


def test_readme_has_three_quick_start_blocks():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_quick_start_block_shows_what_it_returns(block):
    # each expression's repr matches the result shown beside or below it,
    # with "..." standing for any text
    lines = block.splitlines()
    namespace, checked = {}, 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        shown = _shown(lines, stmt)
        assert shown, code
        pattern = ".*".join(map(re.escape, shown.split("...")))
        assert re.fullmatch(pattern, repr(value)), (code, shown, repr(value))
        checked += 1
    assert checked
