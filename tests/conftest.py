"""Settings shared by every test module, and the source size printed after each run."""

import ast
import io
import tokenize
from pathlib import Path

from hypothesis import settings

# Draw the same examples on every run and write no example database, so two
# runs of the suite, on two versions of the code, test the same inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

SRC = Path(__file__).resolve().parents[1] / "src"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def src_lines() -> tuple[int, int]:
    """Lines of the package source under ``src/``: all, and those holding code.

    A code line holds a token that is not a comment, a docstring or layout.
    """
    total = code = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(text.splitlines())
        code += len(lines - docstrings)
    return total, code


def pytest_terminal_summary(terminalreporter):
    total, code = src_lines()
    terminalreporter.write_line(f"src/ lines: {total} in all, {code} of code (no blank, comment or docstring line)")
