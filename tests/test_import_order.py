"""Every ``repro.<package>`` imports on its own, first, in a fresh interpreter.

The suite imports dozens of ``repro`` modules into one process, so an
import cycle that only bites when a particular package comes *first*
(``import repro.traffic`` before anything imported ``repro.topo``) is
invisible to every other test.

Also here, because they too read the import graph rather than run
anything: scenario modules reach the network only through
``repro.topo``, and ``repro.sim.topology`` holds nothing but the
``Network``.
"""

import ast
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
) + [
    "repro.traffic.population", "repro.fluid.derive",
    # modules that import hashlib / sqlite3 / multiprocessing where used
    "repro.harness.runner", "repro.harness.pool", "repro.harness.faults",
    "repro.harness.cli", "repro.campaign.store",
]


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_scenarios_build_their_network_from_specs_only():
    # one construction path: a scenario module describes its network as
    # a repro.topo spec and never touches the pieces build() assembles
    hand_wiring = {
        "repro.sim.topology", "repro.sim.link", "repro.sim.queues",
        "repro.netem.channels",
    }
    offenders = {}
    for path in sorted(Path(SRC, "repro/harness/experiments").glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(f"{node.module}.{a.name}" for a in node.names)
        if imported & hand_wiring:
            offenders[path.name] = sorted(imported & hand_wiring)
    assert offenders == {}


def test_sim_topology_is_the_network_and_nothing_else():
    import repro.sim.topology

    defined = set()
    for node in ast.parse(Path(repro.sim.topology.__file__).read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets)
    assert {n for n in defined if not n.startswith("_")} == {
        "Network", "QueueFactory",
    }


def test_fluid_package_still_serves_the_derive_names():
    import repro.fluid
    from repro.fluid import derive

    for name in ("hybridize", "background_from_population",
                 "background_from_population_flows"):
        assert name in repro.fluid.__all__
        assert getattr(repro.fluid, name) is getattr(derive, name)
    with pytest.raises(AttributeError):
        repro.fluid.no_such_name


def modules_after(statement):
    """``sys.modules`` of a fresh interpreter that ran ``statement``."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"{statement}; import sys; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_running_the_simulator_loads_only_repro_and_the_stdlib():
    # every benchmark subprocess, CLI call and spawned sweep worker pays
    # for whatever these imports pull in before it simulates anything
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
    # a count, not a timing: 212 measured (245 with hashlib, sqlite3 and
    # multiprocessing at module scope, 583 while routing imported
    # networkx), so a heavyweight stdlib import shows up here too
    assert len(loaded) <= 222


#: What the sweep fabric needs and a simulation never calls: OpenSSL's
#: libcrypto behind hashlib, sqlite3, and multiprocessing with the
#: modules it drags in.  6 MB resident when imported at module scope.
SWEEP_ONLY = {
    "hashlib", "_hashlib", "sqlite3", "_sqlite3", "multiprocessing",
    "socket", "_socket", "selectors", "subprocess", "tempfile", "shutil",
    "bz2", "lzma",
}

SIMULATE = (
    "import repro.harness.runner, repro.harness.pool, repro.harness.faults,"
    " repro.api; from repro.harness.registry import get_scenario;"
    ' get_scenario("af_assurance").fn("qtpaf", target_bps=4e6, n_cross=1,'
    " duration=0.5, warmup=0.1, seed=1)"
)


def test_footprint_a_process_that_simulates_loads_no_sweep_dependency():
    # whatever this interpreter's own stdlib pulls in (a build whose
    # random falls back to hashlib) is not ours to fail on
    anyway = set(modules_after(
        "import random, dataclasses, json, pickle, pathlib"
    ))
    assert SWEEP_ONLY & (set(modules_after(SIMULATE)) - anyway) == set()


def test_footprint_the_first_cache_key_is_what_loads_hashlib():
    assert "hashlib" in modules_after(
        "from repro.harness.runner import cache_key;"
        ' cache_key("af_assurance", {"seed": 1})'
    )
