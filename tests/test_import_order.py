"""Every ``repro.<package>`` imports on its own, first, in a fresh interpreter.

The suite imports dozens of ``repro`` modules into one process, so an
import cycle that only bites when a particular package comes *first*
(``import repro.traffic`` before anything imported ``repro.topo``) is
invisible to every other test.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
MODULES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
) + ["repro.traffic.population", "repro.fluid.derive"]


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_fluid_package_still_serves_the_derive_names():
    import repro.fluid
    from repro.fluid import derive

    for name in ("hybridize", "background_from_population",
                 "background_from_population_flows"):
        assert name in repro.fluid.__all__
        assert getattr(repro.fluid, name) is getattr(derive, name)
    with pytest.raises(AttributeError):
        repro.fluid.no_such_name


def test_running_the_simulator_loads_only_repro_and_the_stdlib():
    # every benchmark subprocess, CLI call and spawned sweep worker pays
    # for whatever these imports pull in before it simulates anything
    def modules_after(statement):
        done = subprocess.run(
            [sys.executable, "-c",
             f"{statement}; import sys; print(*sorted(sys.modules))"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def top_level(modules):
        return {name.partition(".")[0] for name in modules}

    loaded = modules_after(
        "import repro.harness.runner, repro.api, repro.campaign, repro.obs"
    )
    third_party = (
        top_level(loaded)
        # __main__ and site's .pth hooks (e.g. _distutils_hack) load anyway
        - top_level(modules_after("pass"))
        - sys.stdlib_module_names
        # multiprocessing's alias of __main__
        - {"repro", "__mp_main__"}
    )
    assert sorted(third_party) == []
    # a count, not a timing: 245 measured (583 while routing imported
    # networkx), so a heavyweight stdlib import shows up here too
    assert len(loaded) <= 300
