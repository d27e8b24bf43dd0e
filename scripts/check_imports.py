#!/usr/bin/env python3
"""Check that importing the CLI loads nothing but the standard library,
numpy and exsample itself, and not the standard library's HTTP stack.

    python3 scripts/check_imports.py

Every top-level module that ``import exsample.cli`` loads, and that was not
already loaded when the interpreter started (a site's own start-up hooks
may load anything), must be in ``sys.stdlib_module_names``, ``numpy`` or
``exsample``.  Of the standard library, the HTTP client and what it pulls
in (``HTTP_STACK``) must not be loaded either: only a remote model's first
query needs them.  Exits 1 naming the others.
"""

import sys

ALLOWED = {"numpy", "exsample"}
HTTP_STACK = ("email", "http.client", "ssl", "urllib.request")


def _top_level() -> set[str]:
    return {name.partition(".")[0] for name in sys.modules}


def main() -> int:
    at_start, loaded_at_start = _top_level(), set(sys.modules)
    import exsample.cli  # noqa: F401

    foreign = sorted(
        name
        for name in _top_level() - at_start
        if name not in sys.stdlib_module_names and name not in ALLOWED
    )
    http = [name for name in HTTP_STACK if name in sys.modules and name not in loaded_at_start]
    if foreign:
        print("import exsample.cli loads modules outside the standard library "
              f"and numpy: {', '.join(foreign)}")
    if http:
        print(f"import exsample.cli loads the HTTP stack: {', '.join(http)}")
    return 1 if foreign or http else 0


if __name__ == "__main__":
    sys.exit(main())
