"""Print the two size measures of a source tree's ``flemvi`` package: its
lines, and its defaults.

Usage:

    python3 tools/sizes.py SRC_DIR

SRC_DIR is the directory that holds the ``flemvi`` package (a checkout's
``src``).  The lines are the newline count of every ``.py`` file under
``flemvi/``, as ``wc -l`` counts them.  The defaults are counted on the
syntax tree of those files:

- every parameter default of a function, a method or a nested function,
  keyword-only parameters included (lambdas are not counted);
- every field with a value (``x: int = 0``, ``x: list = field(...)``) in the
  body of a class decorated with ``dataclass`` or ``dataclass(...)``.

One line per file, then the totals.  Nothing is written.
"""

import argparse
import ast
import os
import sys


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def count_defaults(tree):
    """Parameter defaults plus dataclass fields with a value in ``tree``."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory holding the flemvi package")
    args = parser.parse_args(argv)
    pkg = os.path.join(os.path.abspath(args.src), "flemvi")
    if not os.path.isdir(pkg):
        parser.error(f"no flemvi package under {args.src}")
    total_lines = total_defaults = 0
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                source = fh.read()
            lines = source.count(b"\n")
            defaults = count_defaults(ast.parse(source, filename=path))
            total_lines += lines
            total_defaults += defaults
            print(f"{lines:6d} lines {defaults:4d} defaults  {os.path.relpath(path, pkg)}")
    print(f"{total_lines:6d} lines {total_defaults:4d} defaults  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
