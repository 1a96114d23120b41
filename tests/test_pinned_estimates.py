"""Pinned estimates: theta_hat and predicted std of PEM_W, II0, II1_UNW and
II1_W on the first realizations of both 1000-realization tables (master seed
20260809), and of II1_UNW and II1_W with an S = 10 simulated binding
function, recorded to 17 digits before the Gram-matrix criteria replaced the
pointwise costs; and ML's theta_hat on the first desk-scale realizations
(quadrature order 200, seeded at II1_W), recorded before the searches took
polynomial coefficients.  A rewrite that keeps the estimators keeps these to
1e-10, so this is the equivalence gate of every such rewrite.  The shared
rows run ML (desk scale), II1_UNW and II1_W together through
run_experiment on one S = 10 record, so the BLA fit and the simulated map
they share are pinned too; they were recorded before those were shared.
The stacked rows run II1_UNW and II1_W on realizations 0-4 of
the gaussian table through run_experiment, which stacks their Step 2 over
the realizations; they were recorded before Step 2 was stacked.  Their
PEM_W rows, and those of the uniform table, run PEM_W on a chunk of
records; they were recorded, to 17 digits of the Gram-matrix criterion,
before PEM_W ran on chunks."""

import dataclasses

import pytest

import wienerid as w

from suite_config import table_config

TOL = 1e-10

# (table, realization, method, theta_hat, predicted_std)
PINNED = [
    ("gaussian", 0, "PEM_W", 0.47972725147795287, None),
    ("gaussian", 0, "II0", 0.51440774361206754, 0.05407394760473215),
    ("gaussian", 0, "II1_UNW", 0.49715693807396377, 0.052935368704246262),
    ("gaussian", 0, "II1_W", 0.47967039540943723, 0.04164935262858515),
    ("gaussian", 1, "PEM_W", 0.48747853612665881, None),
    ("gaussian", 1, "II0", 0.43109192405823143, 0.044865199745662832),
    ("gaussian", 1, "II1_UNW", 0.42251173526653307, 0.045092859164163654),
    ("gaussian", 1, "II1_W", 0.45408864062331156, 0.035918300313692871),
    ("gaussian", 2, "PEM_W", 0.47321188106780143, None),
    ("gaussian", 2, "II0", 0.47573590305536223, 0.057200281098398385),
    ("gaussian", 2, "II1_UNW", 0.48214310878966915, 0.053474047384219563),
    ("gaussian", 2, "II1_W", 0.47650422826478689, 0.042743048306002195),
    ("gaussian", 3, "PEM_W", 0.50652041635215994, None),
    ("gaussian", 3, "II0", 0.5484904675497585, 0.061173145551804718),
    ("gaussian", 3, "II1_UNW", 0.59939052652478142, 0.057375867416521904),
    ("gaussian", 3, "II1_W", 0.53197047850196622, 0.049192269387449618),
    ("gaussian", 4, "PEM_W", 0.55669921018487434, None),
    ("gaussian", 4, "II0", 0.52297826350278098, 0.051867116596365413),
    ("gaussian", 4, "II1_UNW", 0.54296390993925125, 0.051784311867537319),
    ("gaussian", 4, "II1_W", 0.51386221431227219, 0.042804281556477961),
    ("uniform", 0, "PEM_W", 0.49186174418955514, None),
    ("uniform", 0, "II0", 0.47127209521685648, 0.049593509177622487),
    ("uniform", 0, "II1_UNW", 0.47771431902271555, 0.047843291835485455),
    ("uniform", 0, "II1_W", 0.4967378932279376, 0.039682756891269946),
    ("uniform", 1, "PEM_W", 0.54887510445264565, None),
    ("uniform", 1, "II0", 0.59375462049195327, 0.043256159747074759),
    ("uniform", 1, "II1_UNW", 0.55227597395564698, 0.041990820331000364),
    ("uniform", 1, "II1_W", 0.54244632646160673, 0.034075867063767314),
    ("uniform", 2, "PEM_W", 0.5234945760461579, None),
    ("uniform", 2, "II0", 0.44648982842862617, 0.042188155632813217),
    ("uniform", 2, "II1_UNW", 0.45240067288542773, 0.04224324407480784),
    ("uniform", 2, "II1_W", 0.51349848807043208, 0.033689106268276585),
    ("uniform", 3, "PEM_W", 0.51129350896226589, None),
    ("uniform", 3, "II0", 0.48777825292529459, 0.04498010004359821),
    ("uniform", 3, "II1_UNW", 0.50172019673026158, 0.043364939310568555),
    ("uniform", 3, "II1_W", 0.52943895630183968, 0.034928615544821684),
    ("uniform", 4, "PEM_W", 0.50497018695243234, None),
    ("uniform", 4, "II0", 0.45455358913105504, 0.038457945771986607),
    ("uniform", 4, "II1_UNW", 0.43978557519061801, 0.03756918820973832),
    ("uniform", 4, "II1_W", 0.4742220289530103, 0.031419254490558789),
    ("simulated", 0, "II1_UNW", 0.50555813268337679, 0.054276846333750121),
    ("simulated", 0, "II1_W", 0.4864435586059514, 0.042767539881110192),
    ("simulated", 1, "II1_UNW", 0.47777116860582214, 0.051683898244678408),
    ("simulated", 1, "II1_W", 0.49671837747062408, 0.041724208172780046),
    ("ml_desk", 0, "ML", 0.48326896009333281, None),
    ("ml_desk", 1, "ML", 0.50044093781753984, None),
    ("shared", 0, "ML", 0.4832689601155516, None),
    ("shared", 0, "II1_UNW", 0.5055581326833998, 0.05427684633374861),
    ("shared", 0, "II1_W", 0.4864435586060056, 0.04276753988110751),
    ("stacked", 0, "II1_UNW", 0.4971569380739823, 0.05293536870424505),
    ("stacked", 1, "II1_UNW", 0.42251173526655456, 0.04509285916416258),
    ("stacked", 2, "II1_UNW", 0.4821431087896831, 0.05347404738421865),
    ("stacked", 3, "II1_UNW", 0.5993905265247839, 0.05737586741652172),
    ("stacked", 4, "II1_UNW", 0.5429639099392568, 0.05178431186753695),
    ("stacked", 0, "II1_W", 0.47967039540946665, 0.04164935262858371),
    ("stacked", 1, "II1_W", 0.4540886406233265, 0.03591830031369224),
    ("stacked", 2, "II1_W", 0.47650422826481137, 0.04274304830600097),
    ("stacked", 3, "II1_W", 0.5319704785019976, 0.049192269387447696),
    ("stacked", 4, "II1_W", 0.5138622143122878, 0.042804281556477114),
    ("stacked", 0, "PEM_W", 0.47972725147794393, None),
    ("stacked", 1, "PEM_W", 0.48747853612664016, None),
    ("stacked", 2, "PEM_W", 0.47321188106800327, None),
    ("stacked", 3, "PEM_W", 0.5065204163524142, None),
    ("stacked", 4, "PEM_W", 0.5566992101847946, None),
    ("stacked_uniform", 0, "PEM_W", 0.4918617441896073, None),
    ("stacked_uniform", 1, "PEM_W", 0.5488751044527127, None),
    ("stacked_uniform", 2, "PEM_W", 0.523494576046165, None),
    ("stacked_uniform", 3, "PEM_W", 0.5112935089622954, None),
    ("stacked_uniform", 4, "PEM_W", 0.5049701869524983, None),
]


def _config(table: str) -> w.ExperimentConfig:
    if table == "simulated":
        return dataclasses.replace(table_config(w.DistributionKind.GAUSSIAN_WHITE), s_count=10)
    if table == "ml_desk":
        return dataclasses.replace(
            table_config(w.DistributionKind.GAUSSIAN_WHITE), methods=("ML",), desk_scale=True
        )
    if table == "shared":
        return dataclasses.replace(
            table_config(w.DistributionKind.GAUSSIAN_WHITE), s_count=10, realizations=1,
            methods=("ML", "II1_UNW", "II1_W"), desk_scale=True,
        )
    if table == "stacked":
        return dataclasses.replace(table_config(w.DistributionKind.GAUSSIAN_WHITE), realizations=5)
    if table == "stacked_uniform":
        return dataclasses.replace(table_config(w.DistributionKind.UNIFORM_WHITE), realizations=5)
    kind = {"gaussian": w.DistributionKind.GAUSSIAN_WHITE, "uniform": w.DistributionKind.UNIFORM_WHITE}
    return table_config(kind[table])


@pytest.mark.parametrize("table", ["gaussian", "uniform", "simulated", "ml_desk"])
def test_estimates_match_pinned_values(table):
    config = _config(table)
    rows = [row for row in PINNED if row[0] == table]
    records = {}
    for _, r, method, theta, std in rows:
        record = records.setdefault(r, w.make_record(config, r))
        est = w.run_method(config, method, record, r)
        assert est.theta_hat[0] == pytest.approx(theta, rel=0.0, abs=TOL), (r, method)
        if std is None:
            assert est.predicted_std is None, (r, method)
        else:
            assert est.predicted_std == pytest.approx(std, rel=TOL, abs=0.0), (r, method)


def assert_experiment_matches_pinned_values(table):
    result = w.run_experiment(_config(table))
    assert not result.failures
    for _, r, method, theta, std in [row for row in PINNED if row[0] == table]:
        assert result.estimates[method][r] == pytest.approx(theta, rel=0.0, abs=TOL), (r, method)
        if std is not None:
            predicted = result.predicted_stds[method][r]
            assert predicted == pytest.approx(std, rel=TOL, abs=0.0), (r, method)


def test_shared_record_matches_pinned_values():
    assert_experiment_matches_pinned_values("shared")


def test_stacked_step2_matches_pinned_values():
    assert_experiment_matches_pinned_values("stacked")


def test_stacked_uniform_matches_pinned_values():
    assert_experiment_matches_pinned_values("stacked_uniform")
