"""One new interpreter per call, importing this package from where the
tests imported it: ``src`` under the tier-1 command, or an install's
site-packages when the tests run with no PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import hjtoric

PACKAGE_ROOT = str(Path(hjtoric.__file__).parents[1])


def python(*args, stdin="", log=None):
    """``python *args`` with ``PACKAGE_ROOT`` as its PYTHONPATH (which
    ``-I`` ignores) and HJTORIC_LOG set to ``log``, or unset.  Returns the
    completed process, in text mode; a run over 10 s fails the test."""
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    env.pop("HJTORIC_LOG", None)
    if log:
        env["HJTORIC_LOG"] = log
    return subprocess.run([sys.executable, *args], env=env, input=stdin, capture_output=True,
                          text=True, timeout=10)
