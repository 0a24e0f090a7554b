"""The README's examples stay runnable: each CLI line and the JSON config
parse into a Run, and each expression of the grammar paragraph parses."""

import pathlib
import re
import shlex

import pytest

from semidyn.cli import Run, _join_dash_values, parse_args
from semidyn.expr import ExprParseError, format_expr, parse_expr

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


CLI_LINES = [line for block in blocks("sh") for line in block.splitlines()
             if line.startswith("semidyn ")]
GRAMMAR = next(p for p in README.split("\n\n") if p.startswith("Inline maps use"))
# spans of the grammar paragraph that spell a call: the placeholders of a
# template, the one malformed example, and expressions
CALLS = re.findall(r"`([a-z]+\(.*?\))`", GRAMMAR)
TEMPLATES = {"compose(f, g, …)", "affine(a, b)", "const(b)", "pow(e, k)"}
MALFORMED = {"affine(0+0i, 1+0i)"}


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_builds_a_run(tmp_path, line):
    argv = shlex.split(line)[1:]
    out = argv.index("--out")
    argv[out + 1] = str(tmp_path)
    Run(parse_args(_join_dash_values(argv)))


def test_json_config_builds_a_run(tmp_path):
    [config] = blocks("json")
    (tmp_path / "config.json").write_text(config)
    Run(parse_args(["render", "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path)]))


def test_the_examples_are_found():
    assert len(CLI_LINES) == 5
    assert TEMPLATES | MALFORMED <= set(CALLS)


@pytest.mark.parametrize("text", sorted(set(CALLS) - TEMPLATES))
def test_grammar_expression_parses(text):
    if text in MALFORMED:
        with pytest.raises(ExprParseError):
            parse_expr(text)
        return
    tree = parse_expr(text)
    assert parse_expr(format_expr(tree)) == tree
