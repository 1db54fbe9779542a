"""The README's Python quick start runs and prints what its comments say."""

import ast
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python quick start"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_quick_start_results_match_comments():
    source = quick_start()
    lines = source.splitlines()
    env = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), env)
            continue
        # the comment after an expression is its result, up to an em dash
        comment = lines[stmt.lineno - 1].partition("#")[2].split("—")[0].strip()
        want = ast.literal_eval(comment)
        got = eval(compile(code, "README.md", "eval"), env)
        assert got == want, code
        checked.append(want)
    assert checked == ["HOLDS_SAMPLED", (4.0, 4.0), 4.0]
