"""Census of the ``tracked()`` registries under ``src/``.

A registry read gone stale across a ``yield`` is checked only at run
time (DESIGN.md §10): the sanitizer flags it in the schedule a run
makes, and the model checker explores the same-instant interleavings
around it.  Both see a registry only if some run writes it with the
sanitizer on.  Every ``tracked(...)`` call is listed here with the runs
that do:

* ``F`` — CI's ``faults --instrument sanitize,collectives`` step;
* ``C`` — CI's ``check`` step over ``smallio``, ``federated`` and
  ``outage``;
* ``T`` — the tier-1 ``test_checker.py::test_shipped_tree_explores_clean``
  (every checker scenario).

A call is keyed by file, enclosing function and registry name (the
call's name argument, as written).  ``analysis/sanitize.py`` defines
``tracked`` and is skipped.  A new call fails this test until it is
listed with a run that writes its registry; a deleted one fails until
its entry goes.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

RUNS = {"F", "C", "T"}

# (file under src/repro, enclosing function, registry name, covering runs);
# the comment names the functions that write the registry in those runs.
SITES = [
    # OsdPool.io_events: F, C, T
    ("pfs/osd.py", "Osd.__init__", "f'osd{index}.last-end'", "FCT"),
    # OsdPool.io_events, on a read with a client id: F, C (federated), T
    ("pfs/osd.py", "Osd.__init__", "f'osd{index}.last-client'", "FCT"),
    # _dir_server: F, C, T; failover: F
    ("pfs/mds.py", "MetadataServer.__init__", "f'{name}.dir-servers'", "FCT"),
    # op: F, C, T
    ("pfs/mds.py", "MetadataServer.__init__", "f'{name}.dir-inflight'", "FCT"),
    # open_write_handle, _drop_metadata: F, C, T; plfs_recover: F
    ("plfs/writer.py", "_host_registry", "f'plfs-host-refs[{home.name}]'", "FCT"),
]


def _is_tracked(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "tracked"


def _sites(node, qualname, path, out):
    for child in ast.iter_child_nodes(node):
        name = qualname
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{qualname}.{child.name}" if qualname else child.name
        if isinstance(child, ast.Call) and _is_tracked(child):
            args = child.args + [kw.value for kw in child.keywords]
            label = ast.unparse(args[2]) if len(args) > 2 else "?"
            out.append((path, name, label))
        _sites(child, name, path, out)


def census():
    root = Path(repro.__file__).parent
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel != "analysis/sanitize.py":
            _sites(ast.parse(path.read_text(encoding="utf-8")), "", rel, out)
    return Counter(out)


def test_every_tracked_registry_is_listed_with_a_covering_run():
    listed = Counter((path, fn, name) for path, fn, name, _ in SITES)
    found = census()
    assert found - listed == Counter(), "unlisted tracked() calls"
    assert listed - found == Counter(), "listed tracked() calls that no longer exist"
    for path, fn, name, runs in SITES:
        assert runs and set(runs) <= RUNS, (path, fn, name, runs)
