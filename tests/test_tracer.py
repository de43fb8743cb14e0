"""The benchmark's tracer still finds every function it traces.

`perfbench/layers.py` wraps each traced function wherever a geokin module
binds it.  A refactor that moves or renames one of them breaks a traced
run; this test makes the same break fail here.  It runs in a subprocess
because installing the tracer rebinds module names for the whole process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import geokin.cli
import layers

def binding(t):
    owner = importlib.import_module(t.module)
    cls_name, _, attr = t.target.rpartition(".")
    return getattr(getattr(owner, cls_name) if cls_name else owner, attr)

missing, prewrapped = [], []
for t in layers.TRACED:
    try:
        fn = binding(t)
    except (ImportError, AttributeError):
        missing.append(layers.key(t))
        continue
    if hasattr(fn, "__wrapped__"):
        prewrapped.append(layers.key(t))
bound = layers.Tracer().install() if not missing else 0
unbound = [layers.key(t) for t in layers.TRACED
           if not missing and not hasattr(binding(t), "__wrapped__")]
print(json.dumps({"missing": missing, "prewrapped": prewrapped,
                  "bound": bound, "unbound": unbound, "traced": len(layers.TRACED)}))
"""


def test_every_traced_function_resolves_and_is_bound():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["missing"] == []
    assert report["prewrapped"] == []
    assert report["unbound"] == []
    assert report["bound"] >= report["traced"]
