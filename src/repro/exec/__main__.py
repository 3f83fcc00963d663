"""Command-line window into the execution-backend registry.

::

    python -m repro.exec list-backends

prints every registered :class:`~repro.exec.api.ExecutionBackend` with
its execution model, then the run-option table (:mod:`repro.exec.spec`).
A registered backend without a column there fails with ``KeyError``.
"""

from __future__ import annotations

import sys


def list_backends(file=sys.stdout) -> int:
    from . import available_backends
    from .spec import MODELS, render_table

    names = available_backends()
    width = max(len(n) for n in names)
    print(f"{len(names)} registered execution backend(s):", file=file)
    for name in names:
        print(f"  {name:<{width}}  {MODELS[name]}", file=file)
    print("\nrun options:", file=file)
    print(render_table(names), file=file)
    print("\nserve these backends over HTTP with `python -m repro.serve` "
          "(graph-as-a-service run server; cgsim-mp excluded — forking "
          "from a threaded server is unsafe).  See docs/SERVE.md.",
          file=file)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 0 if argv else 2
    if argv[0] == "list-backends":
        return list_backends()
    print(f"unknown command {argv[0]!r}; try: list-backends",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
