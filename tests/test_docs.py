"""Documentation guards: the shipped snippets must actually run."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def python_blocks(path):
    text = (ROOT / path).read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_quickstart_runs():
    """Every Python block of the README runs, in one namespace, so a
    block that names a deleted API fails here."""
    blocks = python_blocks("README.md")
    assert len(blocks) >= 2, "README lost its quickstart or service block"
    namespace = {}
    for block in blocks:
        exec(block, namespace)  # noqa: S102 - executing our own docs
    assert len(namespace["index"]) == 2
    assert namespace["outcomes"] == [None]
    assert len(namespace["answers"]) == 2


#: ``from repro... import a, b`` in a code block, the names in
#: parentheses over several lines or on the rest of the line.
REPRO_IMPORT = re.compile(
    r"^\s*from\s+(repro[\w.]*)\s+import\s+(\([^)]*\)|[^\n]*)", re.M
)


@pytest.mark.parametrize("path", ["docs/api.md", "README.md"])
def test_every_name_a_doc_imports_from_repro_resolves(path):
    """Each name a Python block of the doc imports from ``repro``
    exists, so an example naming a deleted API fails here, even one
    in a block that does not run as it stands."""
    imported = []
    for block in python_blocks(path):
        for module, listed in REPRO_IMPORT.findall(block):
            listed = re.sub(r"#[^\n]*", "", listed).strip("()\n ")
            imported += [(module, item.split(" as ")[0].strip())
                         for item in listed.split(",") if item.strip()]
    assert imported, f"{path} imports nothing from repro"
    missing = []
    for module, name in imported:
        try:
            found = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if not hasattr(found, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert missing == []


def test_api_doc_mentions_every_public_index():
    import repro

    api = (ROOT / "docs" / "api.md").read_text()
    for name in repro.__all__:
        if name.endswith("Index") or name in ("MotionDatabase",):
            assert name in api, f"{name} missing from docs/api.md"


def test_paper_map_covers_every_section():
    text = (ROOT / "docs" / "paper_map.md").read_text()
    for section in ("§2", "§3.1", "§3.2", "§3.3", "§3.4", "§3.5.1",
                    "§3.5.2", "§3.6", "§4.1", "§4.2", "§5", "§7"):
        assert section in text, f"{section} missing from the paper map"


def test_experiments_covers_every_figure():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for figure in ("Figure 6", "Figure 7", "Figure 8", "Figure 9"):
        assert figure in text


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text  # a label column ("bulk", "300-400")


def _table(lines):
    """Column names and rows (numbers as floats) of a whitespace-
    separated table, read up to the first blank line; a ruler of dashes
    is skipped."""
    rows = []
    for line in lines:
        if not line.strip():
            break
        if set(line) <= set("- "):
            continue
        rows.append(line.split())
    header, *body = rows
    return header, [[_cell(cell) for cell in row] for row in body]


def _assert_quoted_table_is_committed(heading, result_glob):
    """The first fenced table under ``heading`` in EXPERIMENTS.md is,
    number for number, the committed result file: regenerating one
    side without the other fails here."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split(f"\n{heading}", 1)[1]
    quoted = re.search(r"```\n(.*?)```", section, flags=re.DOTALL).group(1)
    (result,) = (ROOT / "benchmarks" / "results").glob(result_glob)
    committed = result.read_text().splitlines()[1:]  # under the title line
    assert _table(quoted.splitlines()) == _table(committed)


@pytest.mark.parametrize("figure", [6, 7, 8, 9])
def test_experiments_figure_tables_equal_committed_results(figure):
    _assert_quoted_table_is_committed(
        f"## Figure {figure}", f"fig{figure}_*.txt"
    )


def test_experiments_band_sweep_equals_committed_result():
    _assert_quoted_table_is_committed(
        "### Speed-banded keys", "ablation_clustering.txt"
    )


@pytest.mark.parametrize(
    "heading, result",
    [
        ("### §3.5.2 case (ii)", "ablation_wide_strategy.txt"),
        ("#### Width × window", "ablation_wide_sweep.txt"),
    ],
)
def test_experiments_wide_query_tables_equal_committed_results(
    heading, result
):
    _assert_quoted_table_is_committed(heading, result)


def test_experiments_memory_table_equals_committed_result():
    _assert_quoted_table_is_committed(
        "### One object table", "ablation_memory.txt"
    )


def test_experiments_durability_table_equals_committed_result():
    _assert_quoted_table_is_committed(
        "### A checkpoint fires when the tail", "durability.txt"
    )


@pytest.mark.parametrize(
    "heading, result",
    [
        ("### A load is columns", "ablation_load.txt"),
        ("#### Ten ledger pairs", "ablation_load_ledger.txt"),
    ],
)
def test_experiments_load_tables_equal_committed_results(heading, result):
    _assert_quoted_table_is_committed(heading, result)


def test_experiments_bulk_build_table_equals_committed_result():
    """Wall-clock lives in prose; the page columns are the result file."""
    _assert_quoted_table_is_committed(
        "**Bulk construction**", "ablation_bulk_build.txt"
    )


def test_experiments_epoch_grouping_table_equals_committed_result():
    """The table is what its named command writes."""
    heading = "### An epoch is one grouped call"
    section = (ROOT / "EXPERIMENTS.md").read_text().split(heading, 1)[1]
    command = "PYTHONPATH=src python benchmarks/epoch_grouping.py"
    assert command in section.split("```", 1)[0]
    script = (ROOT / "benchmarks" / "epoch_grouping.py").read_text()
    assert command in script and '"epoch_grouping.txt"' in script
    _assert_quoted_table_is_committed(heading, "epoch_grouping.txt")


def test_design_lists_every_bench_file():
    import os

    design = (ROOT / "DESIGN.md").read_text()
    bench_dir = ROOT / "benchmarks"
    missing = []
    for name in os.listdir(bench_dir):
        if name.startswith("test_") and name.endswith(".py"):
            stem = name
            if stem not in design and stem.replace("test_", "") not in design:
                missing.append(name)
    # Every figure bench must be in DESIGN's experiment index; ablations
    # may be grouped, so only hard-require the figures.
    for fig in ("test_fig6_query_large.py", "test_fig7_query_small.py",
                "test_fig8_space.py", "test_fig9_update.py"):
        assert fig not in missing, f"{fig} absent from DESIGN.md"


def test_named_make_targets_and_bench_reports_exist():
    """Docs may only name `make` targets the Makefile has and
    ``BENCH_*.json`` reports that sit under ``benchmarks/results/``."""
    targets = set(re.findall(
        r"^([a-z][a-z-]*):", (ROOT / "Makefile").read_text(), flags=re.M
    ))
    reports = {p.name for p in (ROOT / "benchmarks" / "results").iterdir()}
    docs = [ROOT / name for name in (
        "README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    )] + sorted((ROOT / "docs").glob("*.md"))
    for path in docs:
        text = path.read_text()
        for target in re.findall(r"`make ([a-z][a-z-]*)", text):
            assert target in targets, f"{path.name}: `make {target}`"
        for report in re.findall(r"BENCH_\w+\.json", text):
            assert report in reports, f"{path.name}: {report}"
