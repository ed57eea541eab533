"""The package's public names: the export list stays whole and unique;
what importing the CLI loads; that no module reads the environment; that
no test is skipped or expected to fail; and that README's library sketch
and CLI block run."""

import ast
import json
import os
import re
import shlex
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


def _names(folder: Path) -> list:
    """(where, name) for every attribute, name and imported name in the
    .py files of `folder`, `where` reading "file:line: name"."""
    found = []
    for path in sorted(folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(f"{path.name}:{node.lineno}: {n}", n) for n in names]
    return found


def test_package_reads_no_environment_variable():
    """Reports depend on the command line and the input files alone, so
    identical invocations give byte-identical reports in any environment."""
    env_names = {"environ", "environb", "getenv", "getenvb"}
    found = [at for at, n in _names(Path(impshap.__file__).parent) if n in env_names]
    assert found == []


def test_no_test_is_skipped_or_expected_to_fail():
    """Every test runs and must pass where tier-1 runs: no file under
    tests/ names `pytest.mark.skip`, `skipif`, `xfail`, `pytest.skip` or
    `importorskip`, as an attribute, a name or an import."""
    banned = {"skip", "skipif", "xfail", "importorskip"}
    found = [at for at, n in _names(Path(__file__).parent) if n in banned]
    assert found == []


def test_readme_python_blocks_run():
    """README's ```python blocks run in order, in one namespace."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_cli_block_runs(capsys, tmp_path, monkeypatch):
    """Each line of README's CLI block exits 0, run in a fresh directory."""
    from impshap import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", readme, re.S | re.M).group(1)
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert len(lines) >= 9
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "impshap"
        assert cli.main(argv) == 0, line
        capsys.readouterr()
