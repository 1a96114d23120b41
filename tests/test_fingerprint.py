"""scripts/fingerprint.py writes the realizations each method ran on, and
every estimate, predicted std and failure of its gate set bit for bit, and
on the crafted records the single-record path, so that two trees compare
entry by entry with --diff."""

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
    assert capsys.readouterr().out == f"9 experiments, 62 failure records -> {out}\n"
    # the huge outputs fail every method, and y = 0, the tiny input and
    # u = 0 the three indirect ones
    crafted = prints["crafted@20260809"]
    assert {(r, m) for r, m, _ in crafted["failures"]} == {
        (r, m) for r in (3, 8) for m in script.ALL_METHODS} | {
        (r, m) for r in (4, 6, 9) for m in ("II0", "II1_UNW", "II1_W")}
    for name, p in prints.items():
        # every method runs on every realization of the gate set
        assert p["runs"] == dict.fromkeys(p["config"]["methods"], p["config"]["realizations"])
        for r, m, message in p["failures"]:
            assert p["estimates"][m][r] == "nan" and ": " in message
        assert ("single_record" in p) == name.startswith("crafted")
        if name.startswith("crafted"):
            check_single_record(script, p)
    # the hex values are the experiment's own
    table = prints["table_gaussian@20260809"]
    result = bench.run_experiment(bench.config_from_dict(table["config"]))
    assert table["runs"] == result.seed_ledger["runs"]
    for m, values in result.estimates.items():
        assert table["estimates"][m] == [float(v).hex() for v in values]
    for m, values in result.predicted_stds.items():
        assert table["predicted_stds"][m] == [float(v).hex() for v in values]



SEARCH_TYPES = {"argmin": "float", "min_value": "float", "iterations": "int",
                "degenerate": "bool", "at_bracket_edge": "bool", "fallback": "bool"}
# ML's likelihood states its quadrature order and change; no other search integrates
QUAD_TYPES = {True: {"quad_order": "int", "quad_change": "float"},
              False: {"quad_order": "NoneType", "quad_change": "NoneType"}}


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
            assert {k: v.split(":")[0] for k, v in est["diagnostics"].items()} == {
                **SEARCH_TYPES, **QUAD_TYPES[m == "ML"]}
        fit = single["estimate_weighting"]
        if r in script.HUGE_OUTPUT:
            assert fit.startswith("LinAlgError: I_hat is not finite")
        elif r == script.ZERO_OUTPUT:
            assert fit == "LinAlgError: I_hat is zero (the fit's residuals are all zero)"
        elif r == script.TINY_INPUT:
            assert fit.startswith("LinAlgError: cov_beta is not finite")
        elif r == script.ZERO_INPUT:
            assert fit.startswith("RankDeficiencyError: rank-deficient")
        else:
            assert fit["ridge_applied"] == "bool:False" and fit["cov_beta"]["shape"] == [2, 2]


def write(path, prints):
    path.write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n")
    return str(path)


def test_diff_lists_each_entry_that_differs(script, tmp_path, capsys):
    cell = {"estimates": {"ML": ["0x1.0000000000000p-1", "nan"], "PEM_W": ["-0x0.0p+0"]},
            "failures": [[1, "ML", "QuadratureUnderflowError: t = [3]"]],
            "predicted_stds": {"II1_W": ["0x1.0p-5"]},
            "single_record": [{"run_method": {"ML": {"diagnostics": {
                "argmin": "float:0x1.0000000000000p-1", "iterations": "int:4"}}}}]}
    a = write(tmp_path / "a.json", {"x@1": cell})
    assert script.main(["--diff", a, a]) == 0
    assert capsys.readouterr().out == f"{a} and {a} are equal (9 entries)\n"
    changed = json.loads(json.dumps(cell))
    changed["estimates"]["ML"] = ["0x1.0000000000001p-1", "0x1.0p+0"]
    changed["estimates"]["PEM_W"] = ["0x0.0p+0"]
    diagnostics = changed["single_record"][0]["run_method"]["ML"]["diagnostics"]
    diagnostics.update(argmin="float:0x1.0000000000003p-1", iterations="int:5")
    del changed["failures"]
    b = write(tmp_path / "b.json", {"x@1": changed})
    assert script.main(["--diff", a, b]) == 1
    ml = "x@1/single_record/0/run_method/ML/diagnostics"
    assert capsys.readouterr().out.splitlines() == [
        "x@1/estimates/ML/0: 0x1.0000000000000p-1 -> 0x1.0000000000001p-1  |d| 1.11e-16",
        "x@1/estimates/ML/1: nan -> 0x1.0p+0  |d| inf",
        "x@1/estimates/PEM_W/0: -0x0.0p+0 -> 0x0.0p+0  |d| 0",
        "x@1/failures/0/0: 1 -> <missing>",
        "x@1/failures/0/1: ML -> <missing>",
        "x@1/failures/0/2: QuadratureUnderflowError: t = [3] -> <missing>",
        f"{ml}/argmin: float:0x1.0000000000000p-1 -> float:0x1.0000000000003p-1  |d| 3.33e-16",
        f"{ml}/iterations: int:4 -> int:5",
        "8 of 9 entries differ; largest |d| over float entries inf at x@1/estimates/ML/1",
    ]


def test_diff_without_float_differences(script, tmp_path, capsys):
    a = write(tmp_path / "a.json", {"x@1": {"failures": [[0, "II0", "E: a"]], "estimates": {}}})
    b = write(tmp_path / "b.json", {"x@1": {"failures": [[0, "II0", "E: b"]]}})
    assert script.main(["--diff", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "x@1/estimates: {} -> <missing>",
        "x@1/failures/0/2: E: a -> E: b",
        "2 of 4 entries differ; largest |d| over float entries: none differs",
    ]


@pytest.mark.parametrize("argv", [[], ["out.json", "--diff", "a.json", "b.json"]])
def test_output_file_or_diff(script, argv):
    with pytest.raises(SystemExit) as exit_info:
        script.main(argv)
    assert exit_info.value.code == 2
