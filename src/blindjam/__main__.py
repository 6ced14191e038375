from .cli import entrypoint

raise SystemExit(entrypoint())
