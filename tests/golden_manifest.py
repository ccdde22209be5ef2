"""The golden files and the argv that writes each, read once from golden/manifest.json."""

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

# {golden file: the argv, less --out, that writes it}: every golden comparison reads this
GOLDEN = {
    name: entry["argv"]
    for name, entry in json.loads((GOLDEN_DIR / "manifest.json").read_text()).items()
}
