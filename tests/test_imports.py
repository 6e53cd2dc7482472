"""Import-time dependency guard.

The runtime's declared dependencies are numpy and scipy.  A fresh
interpreter that imports the workflow, HPCWaaS and service layers must
not pull in networkx: every CLI call and every workload pays for what
these imports load.
"""

import os
import subprocess
import sys

import repro


def test_layers_import_without_networkx():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "import repro.workflow, repro.hpcwaas, repro.service\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx')[:1])\n"
        "sys.exit('networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, (
        f"networkx imported: {proc.stdout.strip()} {proc.stderr.strip()}"
    )
