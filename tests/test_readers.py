"""Every public name of the package has a reader.

A reader is an occurrence outside the name's own definition in the code
of the package, the scripts, the benchmark harness or the acceptance gate;
the other tests do not count, so a helper kept alive only by its own tests
is caught.  Docstrings and comments are prose and do not count; string
literals do, since `perfbench/spans.py` names caches by string.  The scan
covers public top-level functions and classes of `src/tcalab/*.py` and the
public methods defined in those classes.  A method is read as `.name`,
anything else as the bare word `name`.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tcalab"
READERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(node) -> bool:
    return isinstance(node, DEFS) and not node.name.startswith("_")


def _definitions():
    """(path, qualified name, pattern, first line, last line) for each
    public definition in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not _public(node):
                continue
            yield (path, node.name, rf"\b{node.name}\b",
                   node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if _public(sub):
                        yield (path, f"{node.name}.{sub.name}",
                               rf"\.{sub.name}\b", sub.lineno, sub.end_lineno)


def _code_lines(path) -> list[str]:
    """The lines of path with its docstrings and comments blanked, so line
    numbers still match the source."""
    text = path.read_text()
    lines = text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    for node in ast.walk(ast.parse(text, str(path))):
        if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node):
            doc = node.body[0]
            for k in range(doc.lineno - 1, doc.end_lineno):
                lines[k] = ""
    return lines


def _unread() -> list[str]:
    texts = {path: _code_lines(path) for path in READERS}
    unread = []
    for path, name, pattern, first, last in _definitions():
        found = re.compile(pattern)
        for reader, lines in texts.items():
            if reader == path:
                # the definition's own lines, decorators included, are blanked
                lines = lines[:first - 1] + lines[last:]
            if any(found.search(line) for line in lines):
                break
        else:
            unread.append(f"{path.stem}.{name}")
    return unread


def test_every_public_name_has_a_reader():
    unread = _unread()
    assert not unread, f"public names without a reader: {', '.join(unread)}"
