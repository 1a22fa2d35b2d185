"""Put the checkout's ``src/`` first on ``sys.path``.

The benchmark drives the package from source, never an installed copy, so
every benchmark script imports this module before ``arclink``.  A tree
without ``src/arclink`` cannot be measured and stops here.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "arclink" / "__init__.py").is_file():
    raise SystemExit(f"bench: no arclink package under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
