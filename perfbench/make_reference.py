"""Regenerate perfbench/reference.json from the program in src/.

    python3 perfbench/make_reference.py

Writes `golden`: the 26-vector `extract_features` gives for each of a few
seeded test signals (`inputs.golden_buffer`), which every run checks against.

Rerun only when feature values change on purpose; a rewrite that changes them
only at rounding level should still pass the golden check (1e-9 relative).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402

GOLDEN_SEEDS = (1, 2, 3, 4)


def main() -> None:
    env.import_wrice()
    from perfbench import inputs
    from wrice import audio_io, features

    golden = []
    for seed in GOLDEN_SEEDS:
        buf = audio_io.AudioBuffer(inputs.golden_buffer(seed), 22050)
        golden.append({"seed": seed, "values": features.extract_features(buf).values.tolist()})
    doc = {"source_sha256": env.source_digest(), "golden": golden}
    inputs.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {inputs.REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
