#!/usr/bin/env python3
"""Write the frozen inputs of the decompose_images workload anew.

The inputs are the Parikh images of the 4-offset net's coordination
automata (origin orbit 1, target orbits 1 and 2), as computed by
``ratcoord.parikh_image``.  They are committed so that decompose_images
keeps measuring the semilinear module alone, on the same inputs, even after
parikh_image changes.  Run from the root of a checkout:

    python3 ratbench/make_inputs.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    os.environ["RATCOORD_PURE"] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import ratcoord
    from ratcoord.semilinear import semilinear_to_json

    graph = ratcoord.parse_periodic_graph((HERE / "nets" / "4off.graph").read_text())
    for target in (1, 2):
        image = ratcoord.parikh_image(ratcoord.build_coordination_nfa(graph, 1, target))
        path = HERE / "inputs" / f"4off_target{target}.json"
        path.write_text(json.dumps(semilinear_to_json(image), separators=(",", ":")) + "\n")
        print(f"{path.name}: {len(image.parts)} parts")


if __name__ == "__main__":
    main()
