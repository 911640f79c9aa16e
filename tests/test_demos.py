"""The narrative scripts in demos/ run to completion and print."""

import glob
import os
import runpy

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


def test_demos_run(capsys):
    assert DEMOS
    for path in DEMOS:
        runpy.run_path(path, run_name="__main__")
        assert capsys.readouterr().out.strip(), path
