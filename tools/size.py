"""Print the size of the ``hyperburg`` package: three totals, then each module.

* ``src_lines``: every line of the ``.py`` files under ``src/``, as ``wc -l``
  counts them;
* ``code_lines``: those lines that hold code, that is, not blank, not
  comment-only and not inside a module, class or function docstring;
* ``exports``: the number of names in ``hyperburg.__all__``.

After the three totals comes one ``<module> <src_lines> <code_lines>`` line
per module, its path under ``src/`` (``hyperburg/suite.py``); the module
lines sum to the totals.

Usage, from the checkout root::

    python tools/size.py
    python tools/size.py --against OLD   # OLD: the root of another checkout

``--against OLD`` runs ``OLD/tools/size.py`` and this script, each in a
subprocess, and prints every total and module line as ``<name> <old> <new>
<delta>``.  A module's numbers read ``<src_lines>/<code_lines>``, and a line
that one side lacks reads 0 there.

Imports ``hyperburg`` from this checkout's ``src/``, not an installed copy.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import hyperburg  # noqa: E402

# Tokens that hold no code of their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module's, its classes' and its functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines of ``text`` on which some token other than layout starts or ends
    (a multi-line string covers all its lines), docstrings left out."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    modules = []  # (path under src/, src_lines, code_lines)
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        modules.append((path.relative_to(SRC).as_posix(), text.count("\n"), code_lines(text)))
    print(f"src_lines {sum(m[1] for m in modules)}")
    print(f"code_lines {sum(m[2] for m in modules)}")
    print(f"exports {len(hyperburg.__all__)}")
    for module, src, code in modules:
        print(f"{module} {src} {code}")


def against(old: str) -> None:
    """Print each line of ``OLD/tools/size.py``'s listing and this one's as
    ``<name> <old> <new> <delta>``, in this listing's order."""
    sizes = []
    for script in (Path(old) / "tools" / "size.py", Path(__file__).resolve()):
        out = subprocess.run([sys.executable, script], capture_output=True, text=True, check=True)
        rows = map(str.split, out.stdout.splitlines())
        sizes.append({name: list(map(int, rest)) for name, *rest in rows})
    for name in dict.fromkeys([*sizes[1], *sizes[0]]):
        pair = [side.get(name, [0, 0]) for side in sizes]  # only a module can be missing
        print(name, *("/".join(map(str, side)) for side in pair),
              "/".join(f"{after - before:+d}" for before, after in zip(*pair)))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="OLD", help="the root of a checkout to compare with")
    args = parser.parse_args()
    if args.against:
        against(args.against)
    else:
        main()
