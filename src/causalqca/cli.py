"""Command-line entry point: ``causalqca list`` and ``causalqca run``.

Exit codes: 0 on success, 1 when a recipe's built-in check fails, 2 on usage
errors (unknown recipe, unknown parameter, malformed --set, a parameter value
the recipe rejects, a size too large to allocate) and when a run needs a module
that cannot be imported (scipy, for a gate solve past the refraction bound that
runs restarts).
"""

from __future__ import annotations

import argparse
import sys

from .recipes import RECIPES, run_recipe


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalqca",
        description="Reproducible event-counting relativity and zigzag-field experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available recipes")

    run = sub.add_parser("run", help="run one recipe")
    run.add_argument("--recipe", required=True, help="recipe name (see 'list')")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a recipe parameter (repeatable)",
    )
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--svg", action="store_true", help="also write SVG diagrams where available")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)

    if args.command == "list":
        for name in sorted(RECIPES):
            print(f"{name:16s} {RECIPES[name].__doc__}")
        return 0

    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()

    try:
        result = run_recipe(args.recipe, overrides, args.out, svg=args.svg)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"error: this run needs {exc.name or 'a module'}, which cannot be imported ({exc})", file=sys.stderr)
        return 2

    status = "ok" if result.ok else "CHECK FAILED"
    print(f"{result.name}: {status}; wrote {', '.join(result.files)} to {args.out}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
