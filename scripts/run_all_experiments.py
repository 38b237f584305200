#!/usr/bin/env python
"""Run every experiment at a given scale and write results/ text files.

Usage: python scripts/run_all_experiments.py [scale] [--skip-table5]

Writes one text file per experiment under results/<scale>/ plus a combined
summary (results/<scale>/ALL.txt) suitable for pasting into EXPERIMENTS.md.
The experiments and their order are ``repro.experiments.registry``'s, the
same ones ``python -m repro suite`` runs.
"""

from __future__ import annotations

import sys


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    scale = args[0] if args else "medium"
    skip = ("table5",) if "--skip-table5" in sys.argv else ()

    from repro.experiments.registry import run_suite

    run_suite(scale, skip)


if __name__ == "__main__":
    main()
