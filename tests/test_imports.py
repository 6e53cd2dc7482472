"""Import-time dependency guard.

The runtime's only declared dependency is numpy; scipy is a test-only
reference.  A fresh interpreter that imports the runtime layers must
pull in neither scipy nor networkx: every CLI call and every workload
pays for what these imports load.  A workflow run must also finish in
an interpreter where scipy cannot be imported at all.
"""

import os
import subprocess
import sys

import repro

FORBIDDEN = ("networkx", "scipy")
LAYERS = ("repro.workflow", "repro.hpcwaas", "repro.service", "repro.esm",
          "repro.ml", "repro.analytics")

#: Installed first in the child: any attempt to import scipy fails.
_BLOCK_SCIPY = """\
import importlib.abc, sys

class _NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not a runtime dependency")
        return None

sys.meta_path.insert(0, _NoScipy())
"""


def _python(code, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, timeout=300,
    )


def test_layers_import_without_forbidden_packages():
    code = (
        "import sys\n"
        f"import {', '.join(LAYERS)}\n"
        f"loaded = sorted({{m.split('.')[0] for m in sys.modules}} & {set(FORBIDDEN)!r})\n"
        "print(loaded)\n"
        "sys.exit(bool(loaded))\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, (
        f"imported: {proc.stdout.strip()} {proc.stderr.strip()}"
    )


def test_workflow_runs_with_scipy_blocked(tmp_path, tc_model_path):
    """ESM, CNN training data, CNN inference and the TC tracker all run."""
    code = _BLOCK_SCIPY + (
        "from repro.cluster import laptop_like\n"
        "from repro.ml import make_patch_dataset\n"
        "from repro.workflow import WorkflowParams, run_extreme_events_workflow\n"
        "make_patch_dataset(n_samples=8, patch=16, seed=1)\n"
        "with laptop_like(scratch_root=sys.argv[1]) as cluster:\n"
        "    summary = run_extreme_events_workflow(cluster, WorkflowParams(\n"
        "        years=[2030], n_days=4, n_lat=8, n_lon=12, min_length_days=3,\n"
        "        tc_model_path=sys.argv[2]))\n"
        "year = summary['years'][2030]\n"
        "assert 'n_tracks' in year['tc_deterministic'], year\n"
        "assert 'n_detections' in year['tc_ml'], year\n"
        "sys.exit('scipy' in sys.modules)\n"
    )
    proc = _python(code, str(tmp_path / "scratch"), tc_model_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
