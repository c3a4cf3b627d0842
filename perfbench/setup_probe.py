"""One fresh-process set-up: import the library, load the tables, build the surface.

    python3 perfbench/setup_probe.py

``run.py`` times this script end to end, several times per run, as the
``setup_s`` metric.  It exits non-zero if any step fails.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ctquad import cli, ibim3d, surfaces, weights  # noqa: E402,F401

tables = [weights.load_weight_table(os.path.join(HERE, "tables", name))
          for name in sorted(os.listdir(os.path.join(HERE, "tables")))
          if name.endswith(".ctwt")]
surface = surfaces.tilted_torus()
if len(tables) != 2 or not surface.reach > 0.0:
    sys.exit("set-up produced no tables or no surface")
