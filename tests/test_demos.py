import importlib.util
from pathlib import Path

import pytest

from metagrad.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "demo, command, table",
    [("bound_curves", "bounds", "bounds.csv"), ("cost_model", "cost", "cost.csv")],
)
def test_demo_writes_the_cli_table(tmp_path, monkeypatch, capsys, demo, command, table):
    module = load_demo(demo)
    monkeypatch.setattr(module, "OUT", tmp_path / "demo")
    module.main()
    assert main([command, "--out", str(tmp_path / "cli")]) == 0
    demo_bytes = (tmp_path / "demo" / table).read_bytes()
    assert demo_bytes == (tmp_path / "cli" / table).read_bytes()
    assert demo_bytes.decode() in capsys.readouterr().out
