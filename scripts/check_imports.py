#!/usr/bin/env python3
"""Check that importing the CLI loads nothing but the standard library,
numpy and exsample itself.

    python3 scripts/check_imports.py

Every top-level module that ``import exsample.cli`` loads, and that was not
already loaded when the interpreter started (a site's own start-up hooks
may load anything), must be in ``sys.stdlib_module_names``, ``numpy`` or
``exsample``.  Exits 1 naming the others.
"""

import sys

ALLOWED = {"numpy", "exsample"}


def _top_level() -> set[str]:
    return {name.partition(".")[0] for name in sys.modules}


def main() -> int:
    at_start = _top_level()
    import exsample.cli  # noqa: F401

    foreign = sorted(
        name
        for name in _top_level() - at_start
        if name not in sys.stdlib_module_names and name not in ALLOWED
    )
    if foreign:
        print("import exsample.cli loads modules outside the standard library "
              f"and numpy: {', '.join(foreign)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
