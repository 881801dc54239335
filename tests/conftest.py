# Keeps the tests directory importable for the shared fixture modules.
import os
from pathlib import Path

import flatcount

# Tests that start `python -m flatcount` as a child process need it to import
# the same package as this process, also when only pytest's `pythonpath`
# setting put `src` on the path.
_package_root = str(Path(flatcount.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_package_root, os.environ.get("PYTHONPATH")])
)
