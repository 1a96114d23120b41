"""scripts/fingerprint.py writes every estimate, predicted std and failure of
its gate set bit for bit, so that two trees compare with cmp."""

import importlib.util
import json
from pathlib import Path

import pytest

import wienerid.bench as bench

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPTS / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_gate_set(script, tmp_path, capsys):
    out = tmp_path / "small.json"
    assert script.main([str(out), "--small"]) == 0
    assert bench.make_record is script.real_make_record
    prints = json.loads(out.read_text())
    assert list(prints) == sorted(name for name, _, _ in script.experiments(small=True))
    assert capsys.readouterr().out == f"8 experiments, 50 failure records -> {out}\n"
    # the huge outputs fail every method, and u = 0 the three indirect ones
    crafted = prints["crafted@20260809"]
    assert {(r, m) for r, m, _ in crafted["failures"]} == {
        (r, m) for r in (3, 8) for m in script.ALL_METHODS} | {
        (9, m) for m in ("II0", "II1_UNW", "II1_W")}
    for p in prints.values():
        for r, m, message in p["failures"]:
            assert p["estimates"][m][r] == "nan" and ": " in message
    # the hex values are the experiment's own
    table = prints["table_gaussian@20260809"]
    result = bench.run_experiment(bench.config_from_dict(table["config"]))
    for m, values in result.estimates.items():
        assert table["estimates"][m] == [float(v).hex() for v in values]
    for m, values in result.predicted_stds.items():
        assert table["predicted_stds"][m] == [float(v).hex() for v in values]
