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
import importlib.util
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
    # modules that import multiprocessing where used
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


def modules_after(statement, *flags):
    """``sys.modules`` of a fresh interpreter that ran ``statement``.

    ``flags`` go to the interpreter before ``-c``: ``-S`` keeps ``site``
    and the ``.pth`` hooks of the interpreter's site-packages out of the
    count, so what is counted is what the statement imports.
    """
    done = subprocess.run(
        [sys.executable, *flags, "-c",
         f"{statement}; import sys; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


#: Run with site, so that an installed package is importable and a
#: guarded import of one (try/except ImportError) is reported by name.
#: What site's .pth hooks loaded from outside the stdlib is dropped from
#: sys.modules first: a package that a hook and the statement both
#: import then counts as the statement's.
LOADED_BY = """\
import sys
for name in list(sys.modules):
    if name.partition(".")[0] not in sys.stdlib_module_names | {{"__main__"}}:
        del sys.modules[name]
before = set(sys.modules)
{statement}
print(*sorted(set(sys.modules) - before))
"""


def modules_loaded_by(statement):
    """The modules ``statement`` adds to a fresh interpreter's sys.modules."""
    done = subprocess.run(
        [sys.executable, "-c", LOADED_BY.format(statement=statement)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_running_the_simulator_loads_only_repro_and_the_stdlib():
    # every benchmark subprocess, CLI call and spawned sweep worker pays
    # for whatever these imports pull in before it simulates anything
    statement = (
        "import repro.harness.runner, repro.api, repro.campaign, repro.obs"
    )
    third_party = (
        {name.partition(".")[0] for name in modules_loaded_by(statement)}
        - sys.stdlib_module_names
        # multiprocessing's alias of __main__
        - {"repro", "__mp_main__"}
    )
    assert sorted(third_party) == []
    # a count, not a timing, taken under -S so that a .pth hook in the
    # interpreter's site-packages (one that imports certifi adds 22 modules)
    # cannot change it: 209 measured on python 3.11.7, 211 on 3.10.13,
    # 210 on 3.12.1 (226 with hashlib, sqlite3 and multiprocessing at
    # module scope, 583 while routing imported networkx), so a
    # heavyweight stdlib import shows up here too.  The bound is the
    # earlier one counted with site, 222, less the three modules -S
    # does not load: site, _sitebuiltins and _distutils_hack.
    loaded = modules_after(statement, "-S")
    assert len(loaded) <= 219


#: What a simulation never calls: sqlite3, and multiprocessing with the
#: modules it drags in, which the sweep fabric imports where it uses
#: them (3.3 MB resident at module scope, python 3.11.7); and hashlib,
#: whose _hashlib maps OpenSSL's libcrypto (3.6 MB), which no process
#: loads since hashing goes through repro.ioutil.sha256.
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
    # random falls back to hashlib) is not ours to fail on; -S keeps a
    # site .pth hook from putting tempfile, shutil, bz2 or lzma in
    # `anyway`, where they would be subtracted unseen
    anyway = set(modules_after(
        "import random, dataclasses, json, pickle, pathlib", "-S"
    ))
    assert SWEEP_ONLY & (set(modules_after(SIMULATE, "-S")) - anyway) == set()


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
    reason="this interpreter is built without its own SHA-256",
)
def test_footprint_no_entry_point_loads_openssl(tmp_path):
    # every way the repo hashes: cache keys, the code version, the grid
    # hash, a parallel sweep into a fresh cache and a campaign artifact
    statement = "; ".join([
        "from pathlib import Path",
        "from repro.campaign.store import _sha256_file",
        "from repro.harness.runner import SweepManifest, cache_key,"
        " code_version, run_matrix",
        "code_version()",
        'cache_key("af_assurance", {"seed": 1})',
        'SweepManifest.grid_hash_of("af_assurance", [{"seed": 1}])',
        'run_matrix("af_assurance", {"protocol": ["tcp", "gtfrc"]},'
        ' base={"target_bps": 4e6, "n_cross": 1, "duration": 0.5,'
        ' "warmup": 0.1}, seeds=[1, 2], workers=2,'
        f" cache_dir=Path({str(tmp_path / 'cache')!r}))",
        f"_sha256_file(Path({SRC!r}) / 'repro' / 'ioutil.py')",
    ])
    loaded = set(modules_after(statement, "-S"))
    assert {"hashlib", "_hashlib"} & loaded == set()
    assert len(list((tmp_path / "cache").rglob("*.pkl"))) == 4


def test_only_the_sha256_helper_imports_hashlib():
    # where hashlib is imported: (file, enclosing function)
    importers = set()
    for path in sorted(Path(SRC, "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {
            child: node
            for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if not {"hashlib", "_hashlib"} & {n.partition(".")[0] for n in names}:
                continue
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            importers.add((
                path.relative_to(SRC).as_posix(),
                getattr(scope, "name", "<module>"),
            ))
    assert importers == {("repro/ioutil.py", "sha256")}
