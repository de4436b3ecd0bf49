import importlib.util
import re
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_meta_training_smoke(tmp_path, monkeypatch, capsys):
    # a few iterations per estimator; the full-order expansion is the exact product's arithmetic
    module = load_demo("meta_training")
    monkeypatch.setattr(module, "ITERATIONS", 3)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    rows = dict(re.findall(r"^ *(\S.*?)  +(\S+ +\S+ +\d+)$", capsys.readouterr().out, re.M))
    assert list(rows) == [name for name, _ in module.RUNS]
    assert rows["exact"] == rows["expansion L=5"]
    assert [int(row.split()[-1]) for row in rows.values()] == [5, 5, 8, 2, 0]
    assert (tmp_path / "meta_training.svg").read_text().endswith("</svg>\n")


def test_sharp_instances_meet_the_bounds(capsys):
    # full, trunc and binom through the public API; every bound is attained to the printed digit
    load_demo("sharp_instances").main()
    pairs = re.findall(r"(\d+\.\d+) = (\d+\.\d+)", capsys.readouterr().out)
    assert len(pairs) == 13
    assert all(measured == bound for measured, bound in pairs)

