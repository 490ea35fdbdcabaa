"""Print the machine and library facts of the environment wflens runs in.

Run with the program's ``src`` directory on ``PYTHONPATH``; prints one JSON
object.  The YAML loader is found by watching which loader class wflens
instantiates while it parses a small workflow.
"""

from __future__ import annotations

import json
import os
import platform

import yaml

LOADERS = (
    "BaseLoader", "SafeLoader", "FullLoader", "Loader", "UnsafeLoader",
    "CBaseLoader", "CSafeLoader", "CFullLoader", "CLoader", "CUnsafeLoader",
)


def loaders_used(parse) -> list[str]:
    """Names of the PyYAML loader classes instantiated while ``parse()`` runs."""
    seen: set[str] = set()
    patched = []
    for name in LOADERS:
        cls = getattr(yaml, name, None)
        if cls is None or "__init__" not in cls.__dict__:
            continue
        original = cls.__dict__["__init__"]

        def spy(self, *args, _original=original, _name=name, **kwargs):
            seen.add(_name)
            _original(self, *args, **kwargs)

        cls.__init__ = spy
        patched.append((cls, original))
    try:
        parse()
    finally:
        for cls, original in patched:
            cls.__init__ = original
    return sorted(seen)


def main() -> None:
    import numpy
    import scipy

    import wflens

    sample = "on: push\njobs:\n  build:\n    runs-on: ubuntu-latest\n"
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "pyyaml_with_libyaml": bool(yaml.__with_libyaml__),
        "wflens_yaml_loader": loaders_used(lambda: wflens.parse_workflow(sample)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }, sort_keys=True))


if __name__ == "__main__":
    main()
