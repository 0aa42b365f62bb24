"""Entry point: ``python -m benchmarks.e2e`` from the checkout root."""

import signal
import sys

from benchmarks.e2e import ROOT

# The package is run from a source checkout, never installed: make
# ``repro`` importable before any harness module asks for it.
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.e2e.cli import main  # noqa: E402

# Die through the ``finally`` blocks, so a terminated benchmark still
# stops its server child and removes its scratch directory.
signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
sys.exit(main())
