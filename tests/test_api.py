"""The package's public names: the export list stays whole and unique;
what importing the CLI loads; and that no module reads the environment."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import impshap


def test_every_exported_name_resolves():
    missing = [name for name in impshap.__all__ if not hasattr(impshap, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(impshap.__all__)) == len(impshap.__all__)


def test_star_import():
    namespace = {}
    exec("from impshap import *", namespace)
    assert set(impshap.__all__) <= set(namespace)


def _fresh_process_modules(code):
    """Run `code` in a new interpreter; the names in sys.modules at its end
    that were not there before it ran."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(impshap.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env).stdout
    return json.loads(out.splitlines()[-1])


def _packages(modules):
    # dunder names such as __mp_main__ are aliases of modules, not packages
    return sorted({m.split(".")[0] for m in modules
                   if not m.startswith("__")} - sys.stdlib_module_names)


def test_cli_import_loads_only_numpy():
    """Importing the CLI loads the standard library, numpy and impshap, and
    no other package."""
    assert _packages(_fresh_process_modules("import impshap.cli")) == [
        "impshap", "numpy"]


def test_json_report_loads_only_numpy_and_no_pool():
    """A command that writes a JSON report loads no package but numpy, and
    not the process pool, which only `build_forest(n_jobs > 1)` uses."""
    modules = _fresh_process_modules(
        "from impshap.cli import main\n"
        "assert main(['pop-mdi', '--data', 'table1-y1', '--format', 'json']) == 0"
    )
    assert _packages(modules) == ["impshap", "numpy"]
    assert [m for m in modules
            if m.split(".")[0] == "multiprocessing"
            or m.startswith("concurrent.futures")] == []


def test_package_reads_no_environment_variable():
    """Reports depend on the command line and the input files alone, so
    identical invocations give byte-identical reports in any environment."""
    env_names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(Path(impshap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in names if n in env_names]
    assert found == []
