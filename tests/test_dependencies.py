import ast
import os
import subprocess
import sys

import pytest

import semidyn

PACKAGE = os.path.dirname(semidyn.__file__)


def test_import_loads_no_scipy():
    # the package runs on numpy alone; loading scipy would be most of its
    # start-up time and memory
    src = os.path.dirname(PACKAGE)
    code = ("import sys, semidyn, semidyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py"))
def test_every_import_is_used(name):
    # the imports of __init__.py are the package's API; elsewhere an unused
    # import is dead
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{name}:{alias.lineno} {bound}")
    assert unused == []


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_every_private_name_is_used(name):
    # a module-level _name is the module's own, so a module that never
    # reads it holds dead code
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    private = {d for d in defined if d.startswith("_") and not d.startswith("__")}
    assert sorted(private - read) == []


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_no_environment_reads(name):
    # every input is a flag or a config key naming one, so a run depends on
    # its command line and files alone, never on the environment
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(alias.name in ENVIRONMENT for alias in node.names)]
    assert reads == []


PROCESS_CACHES = {"cache", "lru_cache"}
# (module, function) that may be so cached: parse_args keeps no state
# between calls, so the parser holds nothing a run leaves behind
CACHES_ALLOWED = {("cli.py", "build_parser")}


def _names_a_cache(node):
    return (isinstance(node, ast.Attribute) and node.attr in PROCESS_CACHES
            or isinstance(node, ast.Name) and node.id in PROCESS_CACHES)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_no_process_wide_cache(name):
    # the benchmark runs one CLI run after another in one process, so a
    # cache that outlives a run would time its own hits, not the run's
    # work (ROADMAP item 7); what a run reuses lives in what it builds,
    # such as its sample plan
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read())
    allowed = {id(n) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and (name, node.name) in CACHES_ALLOWED
               for d in node.decorator_list for n in ast.walk(d)}
    uses = [node.lineno for node in ast.walk(tree)
            if _names_a_cache(node) and id(node) not in allowed]
    assert uses == []


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read_names(path):
    """The names a file reads: loaded names, attributes, and string
    constants, through which bench/tracing.py names what it wraps."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)})


def test_every_export_has_a_caller():
    # the package's API is what its modules, the demos and the benchmark
    # call; a name that only tests call is dead code with a test
    with open(os.path.join(PACKAGE, "__init__.py")) as fh:
        init = ast.parse(fh.read())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = [os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE)
               if f.endswith(".py") and f != "__init__.py"]
    for folder in ("demos", "bench"):  # bench/tests are tests
        callers += [os.path.join(REPO, folder, f)
                    for f in os.listdir(os.path.join(REPO, folder)) if f.endswith(".py")]
    read = set().union(*map(_read_names, callers))
    assert sorted(exported - read) == []


SOURCES = sorted(os.path.join(folder, f) for folder in (PACKAGE, os.path.join(REPO, "demos"))
                 for f in os.listdir(folder) if f.endswith(".py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: os.path.relpath(p, REPO))
def test_no_line_over_99_characters(path):
    # the width the package and the demos are wrapped to
    with open(path, encoding="utf-8") as fh:
        long = [n for n, line in enumerate(fh, 1) if len(line.rstrip("\n")) > 99]
    assert long == []
