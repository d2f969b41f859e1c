"""The README's library example and its public API list, checked against
the package as it is."""

import re

import codedpir
import codedpir.workbench

from conftest import TESTS_DIR

README = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text under a "## title" heading, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs_as_written(capsys):
    block = _section("Library example").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    # the example prints what its comment says
    printed = re.search(r"^print\(.*\)\s+# (.*)$", block, re.MULTILINE).group(1)
    assert capsys.readouterr().out == printed + "\n"


def test_public_api_list_is_every_export():
    listed = {codedpir: [], codedpir.workbench: []}
    for item in _section("Public API").split("\n- ")[1:]:
        package, names = re.match(r"`([\w.]+)`, from `\w+`: (.*)", item, re.DOTALL).groups()
        module = codedpir.workbench if package == "codedpir.workbench" else codedpir
        listed[module] += re.findall(r"`(\w+)`", names)
    for module, names in listed.items():
        assert sorted(names) == sorted(module.__all__), module.__name__
