#!/usr/bin/env python3
"""CI guard: only ``repro.env`` reads ``REPRO_*`` environment variables.

Every environment-backed setting is a row of the table in
``src/repro/env.py`` and is resolved there, flag > env > default.  A
second reader would be a second precedence rule.  This script ast-parses
every module under ``src/repro`` except ``env.py`` and fails (exit code
1) when one of them

* names a ``REPRO_*`` variable in a string literal that is nothing but
  the name (``"REPRO_CACHE_DIR"``; prose that mentions one is fine), or
* reads the environment (``os.environ``, ``os.getenv``) in a module
  that mentions a ``REPRO_*`` name in any string.

Run from the repository root::

    python tools/check_env_reads.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED = SRC_DIR / "env.py"

_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def check_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    mentions = False
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _NAME.search(node.value):
                mentions = True
            if _NAME.fullmatch(node.value.strip()):
                violations.append(
                    f"{path}:{node.lineno}: names {node.value.strip()!r}"
                )
        elif isinstance(node, ast.Attribute) and node.attr in _ENV_READERS:
            reads.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads.extend(
                node.lineno for alias in node.names
                if alias.name in _ENV_READERS
            )
    if mentions:
        violations.extend(
            f"{path}:{line}: reads the environment beside a REPRO_* name"
            for line in reads
        )
    return violations


def main() -> int:
    files = sorted(p for p in SRC_DIR.rglob("*.py") if p != ALLOWED)
    if not ALLOWED.exists() or not files:
        print(f"error: expected {ALLOWED} and the modules beside it",
              file=sys.stderr)
        return 2
    violations = [v for path in files for v in check_file(path)]
    if violations:
        print("only repro/env.py may read REPRO_* variables; violations:",
              file=sys.stderr)
        for line in violations:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"ok: {len(files)} modules leave REPRO_* variables to repro.env")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
