"""scripts/fingerprint.py writes every estimate, predicted std and failure of
its gate set bit for bit, and on the crafted records the single-record path,
so that two trees compare with cmp."""

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
    for name, p in prints.items():
        for r, m, message in p["failures"]:
            assert p["estimates"][m][r] == "nan" and ": " in message
        assert ("single_record" in p) == name.startswith("crafted")
        if name.startswith("crafted"):
            check_single_record(script, p)
    # the hex values are the experiment's own
    table = prints["table_gaussian@20260809"]
    result = bench.run_experiment(bench.config_from_dict(table["config"]))
    for m, values in result.estimates.items():
        assert table["estimates"][m] == [float(v).hex() for v in values]
    for m, values in result.predicted_stds.items():
        assert table["predicted_stds"][m] == [float(v).hex() for v in values]



SEARCH_TYPES = {"argmin": "float", "min_value": "float", "iterations": "int",
                "degenerate": "bool", "at_bracket_edge": "bool", "fallback": "bool"}


def check_single_record(script, p) -> None:
    """Each crafted record's run_method is the experiment's cell, with the
    fields of its search, and its weighted fit fails where the crafted
    faults make it fail."""
    failed = {(r, m): message for r, m, message in p["failures"]}
    assert len(p["single_record"]) == p["config"]["realizations"]
    for r, single in enumerate(p["single_record"]):
        for m, est in single["run_method"].items():
            if (r, m) in failed:
                assert est == failed[r, m]
                continue
            assert est["theta_hat"] == {"shape": [1], "hex": [p["estimates"][m][r]]}
            std = p["predicted_stds"][m][r] if m in p["predicted_stds"] else None
            assert est["predicted_std"] == ("NoneType:None" if std is None else f"float:{std}")
            assert {k: v.split(":")[0] for k, v in est["diagnostics"].items()} == SEARCH_TYPES
        fit = single["estimate_weighting"]
        if r in script.HUGE_OUTPUT:
            assert fit.startswith("LinAlgError: I_hat is not finite")
        elif r == script.ZERO_INPUT:
            assert fit.startswith("RankDeficiencyError: rank-deficient")
        else:
            assert fit["ridge_applied"] == "bool:False" and fit["cov_beta"]["shape"] == [2, 2]
