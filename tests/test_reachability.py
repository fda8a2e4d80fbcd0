"""Every top-level function and class in ``src/repro`` has a user in ``src/``.

A symbol passes when one of these holds:

* code in some ``src/repro`` module other than a package ``__init__``
  names it (a call, an attribute, an import), outside its own
  definition — a re-export in a package ``__init__`` is not a use;
* it is decorated with ``register`` (the scenario registry calls it);
* it is on :data:`ALLOWED`, with the reason it stays.

Names are matched without their module, so two symbols that share a
name vouch for each other; the check can miss dead code, but it never
names a symbol that ``src/`` uses.  Module protocol hooks (dunder
names such as a package ``__getattr__``) are not symbols.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

#: ``(module path under repro/, name)`` -> why nothing in ``src/`` has
#: to use it.
ALLOWED = {
    ("core/connection.py", "Initiator"):
        "negotiation endpoint: the T6 benchmark and examples/quickstart.py",
    ("core/connection.py", "Responder"):
        "negotiation endpoint: the T6 benchmark and examples/quickstart.py",
    ("topo/generators.py", "isp_chain_spec"):
        "topology behind benchmarks/goldens/next_hop_goldens.json",
    ("topo/generators.py", "fat_tree_spec"):
        "topology behind benchmarks/goldens/next_hop_goldens.json",
    ("fluid/derive.py", "background_from_population_flows"):
        "reference model the fluid tests compare the streamed profile against",
    ("traffic/population.py", "offered_load_profile"):
        "reference model the fluid tests compare against",
    ("metrics/stats.py", "throughput_series"):
        "rate series for the warm-up and run-length rule (ROADMAP item 6)",
    ("harness/probes.py", "capture_goldens"):
        "regenerates benchmarks/goldens/core_goldens.json",
    ("qos/sla.py", "AdmissionController"):
        "SLA admission control: examples/qos_streaming.py",
}


def _names_in(node):
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name.rpartition(".")[2])
    return names


def _is_registered(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "register":
            return True
    return False


def _unreferenced():
    """``(module path, name)`` of every top-level symbol nothing uses."""
    trees = {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
        for path in sorted(ROOT.rglob("*.py"))
    }
    # names used by each non-__init__ module, per top-level statement,
    # so a symbol's own definition can be left out
    used = {
        module: [(top, _names_in(top)) for top in tree.body]
        for module, tree in trees.items()
        if not module.endswith("__init__.py")
    }
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if _is_registered(node):
                continue
            if any(
                name in names
                for statements in used.values()
                for top, names in statements
                if top is not node
            ):
                continue
            found.add((module, name))
    return found


def test_every_symbol_has_a_user_in_src_or_a_reason():
    unreferenced = _unreferenced()
    assert sorted(unreferenced - set(ALLOWED)) == []
    # an entry whose symbol is gone or has gained a user leaves the list
    assert sorted(set(ALLOWED) - unreferenced) == []
    assert all(reason.strip() for reason in ALLOWED.values())
