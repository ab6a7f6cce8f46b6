"""What each entry point loads.

``import distunlearn`` loads no submodule and no scipy: names resolve on
first use.  The theory functions and commands (bounds, frontier) then load
numpy alone, never scipy.sparse or scipy.special: scipy.sparse costs a fresh
process about 0.3 s and 22 MB, scipy.special about 70 ms and 7.5 MB.  Each
import check runs in a fresh interpreter, since this test process has long
since imported them all."""

import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import distunlearn

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import os, sys
import distunlearn as du
out = os.path.join(sys.argv[1], "out.csv")
steps = {"import": lambda: None,
         "bound_selective": lambda: du.bound_selective(1000, 1000, 100, 0.1, 0.5),
         "frontier_expfamily": lambda: du.frontier_expfamily(du.bernoulli_family(0.3, 0.7),
                                                             0.5),
         "bounds command": lambda: du.cli.main(["bounds", "--out", out]),
         "bernoulli frontier command": lambda: du.cli.main(
             ["frontier", "--set", "frontier.family=bernoulli", "--out", out])}
for name, step in steps.items():
    step()
    loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"
              or name == "import" and m.startswith("distunlearn.")]
    if loaded:
        print(name, "loaded", *sorted(loaded)[:5], file=sys.stderr)
        sys.exit(3)
"""


def test_theory_entry_points_leave_scipy_unloaded(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr


class TestLazyNamespace:
    def test_every_exported_name_is_its_defining_modules_object(self):
        for name in distunlearn.__all__:
            value = getattr(distunlearn, name)
            if isinstance(value, types.ModuleType):
                assert value is sys.modules[f"distunlearn.{name}"]
            else:
                assert value.__module__.startswith("distunlearn.")
                assert getattr(sys.modules[value.__module__], name) is value

    def test_every_submodule_is_an_attribute(self):
        names = [m.name for m in pkgutil.iter_modules(distunlearn.__path__)]
        assert set(names) <= set(distunlearn.__all__)
        for name in names:
            assert getattr(distunlearn, name) is sys.modules[f"distunlearn.{name}"]
        assert set(distunlearn.__all__) <= set(dir(distunlearn))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            distunlearn.no_such_name  # noqa: B018
        assert not hasattr(distunlearn, "_private")
