"""The golden files and the argv that writes each, read once from golden/manifest.json.

Run as a script, it rewrites the named golden files from their argv:

    PYTHONPATH=src python tests/golden_manifest.py peaks_n5.csv peaks_n5.json
"""

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

# {golden file: the argv, less --out, that writes it}: every golden comparison reads this
GOLDEN = {
    name: entry["argv"]
    for name, entry in json.loads((GOLDEN_DIR / "manifest.json").read_text()).items()
}

if __name__ == "__main__":
    from oscfree.cli import main

    for name in sys.argv[1:]:
        if name not in GOLDEN:
            sys.exit(f"{name!r} is not in {GOLDEN_DIR / 'manifest.json'}")
        if main(GOLDEN[name] + ["--out", str(GOLDEN_DIR / name)]) != 0:
            sys.exit(f"the argv of {name!r} failed")
