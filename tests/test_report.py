"""Report rows: shared field builders, the fixed CSV column order, and the
factorization text."""

import hashlib
import json
import random

import numpy as np
import pytest

from zdgecc import report, survey
from zdgecc.cli import main
from zdgecc.exact_linalg import integrality_certificate

VARIANTS = ["zdg", "extended", "compressed", "complement"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


@pytest.mark.parametrize("variant", VARIANTS)
def test_survey_csv_identical_across_cache_states(capsys, tmp_path, variant):
    argv = (
        "survey", "--max-n", "30", "--variant", variant, "--csv",
        "--cache", "--cache-dir", str(tmp_path / "cache"),
    )
    cold = run(capsys, *argv)
    warm = run(capsys, *argv)
    entries = sorted((tmp_path / "cache").glob("*.json"))
    for entry in entries[::2]:
        entry.unlink()
    half_warm = run(capsys, *argv)
    assert cold.splitlines()[0].startswith("kind,n,variant,vertices,edges,")
    assert warm == cold
    assert half_warm == cold


def test_survey_cache_ignores_entries_from_another_eigensolver(tmp_path):
    # an entry under the key material used before the eigensolver was named
    # in it must be recomputed, not served
    opts = {"structure_only": False, "exact_cap": 150, "cluster_tol": 1e-6}
    material = {"n": 8, "variant": "zdg", "version": "0.1.0", **opts}
    key = hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()
    stale = {**survey.survey_record(8), "eigen_sum": "sentinel"}
    tmp_path.joinpath(key + ".json").write_text(json.dumps(stale, sort_keys=True))
    records = survey.run_survey(8, cache_dir=tmp_path)
    assert [r["n"] for r in records] == [4, 6, 8]
    assert records[-1]["eigen_sum"] != "sentinel"
    assert records[-1] == survey.survey_record(8)


def test_csv_columns_ignore_item_key_order():
    items = [
        {"kind": "survey", "n": 6, "variant": "complement", "connected": False,
         "ecc_convention": "per-component", "eigen_sum": "0", "integral": True},
        {"kind": "survey", "n": 4, "variant": "complement", "connected": True,
         "eigen_sum": "0", "integral": True},
    ]
    text = report.to_csv(items)
    assert text.splitlines()[0] == (
        "kind,n,variant,connected,eigen_sum,ecc_convention,integral"
    )
    rng = random.Random(0)
    for _ in range(5):
        shuffled = []
        for item in items:
            keys = list(item)
            rng.shuffle(keys)
            shuffled.append({k: item[k] for k in keys})
        assert report.to_csv(shuffled) == text


def test_csv_keys_outside_columns_follow_in_first_seen_order():
    items = [{"verdict": "Verified", "kind": "audit", "theorem": "3.1"},
             {"evidence": {}, "kind": "audit"}]
    assert report.to_csv(items).splitlines()[0] == "kind,verdict,theorem,evidence"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [6, 12, 35])
def test_spectrum_and_survey_rows_share_fields(capsys, variant, n):
    out = run(capsys, "spectrum", "--n", str(n), "--variant", variant, "--method", "float")
    item = json.loads(out)["items"][0]
    rec = survey.survey_record(n, variant)
    shared = set(item) & set(rec) - {"kind"}
    assert shared >= {
        "n", "variant", "vertices", "edges", "connected", "tree", "star",
        "complete", "irreducible", "energy", "spectral_radius",
        "least_eigenvalue", "eigen_sum",
    }
    assert ("ecc_convention" in item) == ("ecc_convention" in rec) == (not rec["connected"])
    assert {k: item[k] for k in shared} == {k: rec[k] for k in shared}


def test_zero_root_prints_as_x():
    assert integrality_certificate(np.zeros((1, 1), dtype=np.int64)).text() == "x"
    assert integrality_certificate(np.zeros((3, 3), dtype=np.int64)).text() == "x^3"


def test_compressed_120_factorization_starts_with_x_cubed(capsys):
    out = run(capsys, "spectrum", "--n", "120", "--variant", "compressed")
    assert json.loads(out)["items"][0]["factorization"].startswith("x^3 * (")
