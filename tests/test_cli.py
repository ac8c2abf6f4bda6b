import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zdgecc
from zdgecc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# spectrum command


def test_spectrum_z8(capsys):
    rep = run_json(capsys, "spectrum", "--n", "8", "--variant", "zdg")
    assert rep["schema"] == 1
    item = rep["items"][0]
    assert item["vertices"] == 3
    assert item["char_poly"] == "-4 - 6*x + x^3"
    assert item["tree"] is True and item["star"] is True
    values = [(e["value"], e["multiplicity"]) for e in item["spectrum"]]
    assert values[0] == ("-2", 1)


def test_spectrum_extended_z8(capsys):
    rep = run_json(capsys, "spectrum", "--n", "8", "--variant", "extended")
    item = rep["items"][0]
    assert item["char_poly"] == "-2 - 3*x + x^3"
    assert [(e["value"], e["multiplicity"]) for e in item["spectrum"]] == [
        ("-1", 2),
        ("2", 1),
    ]


def test_spectrum_n4_single_vertex(capsys):
    rep = run_json(capsys, "spectrum", "--n", "4", "--variant", "zdg")
    item = rep["items"][0]
    assert item["vertices"] == 1
    assert [(e["value"], e["multiplicity"]) for e in item["spectrum"]] == [("0", 1)]


def test_spectrum_prime_exit_2(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "7", "--variant", "zdg")
    assert code == 2
    assert "zero divisors" in err


def test_spectrum_oversize_exit_3(capsys):
    code, out, err = run(
        capsys, "spectrum", "--n", "60", "--method", "exact", "--exact-cap", "5"
    )
    assert code == 3


def test_spectrum_dump_graph(capsys, tmp_path):
    path = tmp_path / "g.txt"
    run_json(capsys, "spectrum", "--n", "8", "--dump-graph", str(path))
    assert path.read_text() == "2: 4\n4: 2,6\n6: 4\n"


def test_spectrum_dump_matrix(capsys, tmp_path):
    path = tmp_path / "m.txt"
    run_json(capsys, "spectrum", "--n", "8", "--dump-matrix", str(path))
    assert path.read_text() == "0 1 2\n1 0 1\n2 1 0\n"


def test_spectrum_csv(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "8", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("kind,n,variant")
    assert lines[1].startswith("spectrum,8,zdg")


def test_spectrum_float_method(capsys):
    rep = run_json(capsys, "spectrum", "--n", "35", "--method", "float")
    item = rep["items"][0]
    assert item["method"] == "float"
    assert "char_poly" not in item


# ---------------------------------------------------------------------------
# audit command


def test_audit_31_all_verified(capsys):
    code, out, err = run(capsys, "audit", "--theorem", "3.1", "--primes-up-to", "13")
    assert code == 0
    rep = json.loads(out)
    assert rep["refutations"] == []
    assert all(i["verdict"] == "Verified" for i in rep["items"])


def test_audit_61_verified(capsys):
    code, out, err = run(capsys, "audit", "--theorem", "6.1", "--primes-up-to", "13")
    assert code == 0


def test_audit_43_expected_refutations_match(capsys):
    code, out, err = run(
        capsys,
        "audit", "--theorem", "4.3", "--max-n", "100",
        "--expect-refutations", "n=8,n=9",
    )
    assert code == 0


def test_audit_43_unexpected_refutations(capsys):
    code, out, err = run(capsys, "audit", "--theorem", "4.3", "--max-n", "100")
    assert code == 1  # refutations exist but none were declared expected


def test_audit_43_wrong_expectation(capsys):
    code, out, err = run(
        capsys,
        "audit", "--theorem", "4.3", "--max-n", "100",
        "--expect-refutations", "n=8",
    )
    assert code == 1
    assert "unexpected" in err


def test_audit_expected_refutations_from_file(capsys, tmp_path):
    spec_file = tmp_path / "expected.txt"
    spec_file.write_text("4.3:n=8\n4.3:n=9\n")
    code, out, err = run(
        capsys,
        "audit", "--theorem", "4.3", "--max-n", "100",
        "--expect-refutations", str(spec_file),
    )
    assert code == 0


def test_audit_unknown_theorem_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--theorem", "7.7"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_audit_52_prime_powers(capsys):
    code, out, err = run(capsys, "audit", "--theorem", "5.2", "--max-power", "128")
    assert code == 0
    rep = json.loads(out)
    powers = {(i["params"]["p"], i["params"]["t"]) for i in rep["items"]}
    assert (2, 7) in powers and (11, 2) in powers and (5, 3) in powers
    assert all(i["verdict"] == "Verified" for i in rep["items"])


def test_audit_32_refutations_reported(capsys):
    code, out, err = run(capsys, "audit", "--theorem", "3.2", "--primes", "3,5")
    assert code == 1
    rep = json.loads(out)
    assert rep["refutations"] == ["3.2:p=3", "3.2:p=5"]


# ---------------------------------------------------------------------------
# survey command


def test_survey_trees_to_100(capsys):
    rep = run_json(capsys, "survey", "--max-n", "100", "--structure-only")
    trees = [i["n"] for i in rep["items"] if i["tree"]]
    assert trees == [4, 6, 8, 9, 10, 14, 22, 26, 34, 38, 46, 58, 62, 74, 82, 86, 94]


def test_survey_extended_complete_to_50(capsys):
    rep = run_json(
        capsys, "survey", "--max-n", "50", "--variant", "extended", "--structure-only"
    )
    complete = [i["n"] for i in rep["items"] if i["complete"]]
    assert complete == [4, 8, 9, 16, 25, 27, 32, 49]


def test_survey_trace_zero_to_30(capsys):
    rep = run_json(capsys, "survey", "--max-n", "30")
    for item in rep["items"]:
        assert abs(float(item["eigen_sum"])) < 1e-7 * max(1, item["vertices"])


def test_survey_deterministic_across_workers(capsys):
    code1, out1, _ = run(capsys, "survey", "--max-n", "40")
    code2, out2, _ = run(capsys, "survey", "--max-n", "40", "--workers", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_survey_cache_roundtrip(capsys, tmp_path):
    cache = tmp_path / "cache"
    code1, out1, _ = run(
        capsys, "survey", "--max-n", "30", "--cache", "--cache-dir", str(cache)
    )
    assert code1 == 0
    assert any(cache.iterdir())
    code2, out2, _ = run(
        capsys, "survey", "--max-n", "30", "--cache", "--cache-dir", str(cache)
    )
    assert out1 == out2


def test_survey_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("ZDG_CACHE_DIR", str(cache))
    code, out, _ = run(capsys, "survey", "--max-n", "20", "--cache")
    assert code == 0
    assert cache.exists() and any(cache.iterdir())


def test_survey_unwritable_output_exit_4(capsys, tmp_path):
    target = tmp_path / "nodir" / "report.json"
    code, out, err = run(capsys, "survey", "--max-n", "20", "--output", str(target))
    assert code == 4
    assert "cannot write" in err


def test_survey_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "survey", "--max-n", "20", "--output", str(target))
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["schema"] == 1


def test_survey_integrality_column(capsys):
    rep = run_json(capsys, "survey", "--max-n", "30")
    by_n = {i["n"]: i for i in rep["items"]}
    assert by_n[25]["integral"] is True  # K_4
    assert by_n[8]["integral"] is False
    assert by_n[8]["residual"] == "-2 - 2*x + x^2"


def test_report_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "audit", "--theorem", "6.2", "--primes", "3,5")
    _, out2, _ = run(capsys, "audit", "--theorem", "6.2", "--primes", "3,5")
    assert out1 == out2


def test_audit_all_small_ranges(capsys):
    code, out, err = run(
        capsys,
        "audit", "--theorem", "all",
        "--primes-up-to", "5", "--max-n", "20", "--max-power", "16",
    )
    assert code == 1  # refutations exist across the catalogue
    rep = json.loads(out)
    theorems = {i["theorem"] for i in rep["items"]}
    assert theorems == {
        "3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "4.3",
        "5.1", "5.2", "5.3", "6.1", "6.2", "6.3", "6.4",
    }
    assert "4.3:n=8" in rep["refutations"]
    assert "5.3:p=3" in rep["refutations"]


def test_complement_report_flags_convention(capsys):
    rep = run_json(capsys, "spectrum", "--n", "35", "--variant", "complement")
    item = rep["items"][0]
    assert item["connected"] is False
    assert item["ecc_convention"] == "per-component"


# ---------------------------------------------------------------------------
# input checks made before any work


@pytest.fixture
def no_graph_builds(monkeypatch):
    """Make every graph construction fail, so a test proves none happens."""
    from zdgecc import graphs, survey

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    for name in ("build_zdg", "build_extended_zdg", "build_compressed_zdg", "complement", "upsilon"):
        for mod in (graphs, survey):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)


@pytest.mark.parametrize("variant", ["zdg", "extended", "compressed", "complement"])
def test_spectrum_oversize_exit_3_before_building(capsys, no_graph_builds, variant):
    # orders at n = 10^6: 599999 zero divisors, 47 proper divisors
    code, out, err = run(
        capsys, "spectrum", "--n", "1000000", "--variant", variant,
        "--method", "exact", "--exact-cap", "40",
    )
    assert code == 3
    assert out == ""
    assert "exceeds exact cap 40" in err


@pytest.mark.parametrize("n", ["7", "3", "0", "-5"])
def test_spectrum_domain_error_exit_2_before_building(capsys, no_graph_builds, n):
    code, out, err = run(capsys, "spectrum", "--n", n, "--method", "exact")
    assert code == 2
    assert "zero divisors" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--n", "8"),
        ("audit", "--theorem", "4.3", "--max-n", "10"),
        ("survey", "--max-n", "10"),
    ],
)
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cluster_tol_must_be_non_negative(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cluster-tol", tol])
    assert exc.value.code == 2
    assert "--cluster-tol" in capsys.readouterr().err


def test_spectrum_dump_matrix_to_stdout(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "8", "--dump-matrix", "-")
    assert code == 0
    assert out.startswith("0 1 2\n1 0 1\n2 1 0\n{")


def test_survey_cache_recovers_corrupt_entries(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ("survey", "--max-n", "20", "--cache", "--cache-dir", str(cache))
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    garbage, foreign = sorted(cache.glob("*.json"))[:2]
    garbage.write_text("{not json")
    foreign.write_text(json.dumps({"kind": "survey", "n": 999, "variant": "zdg"}))
    code, warm, err = run(capsys, *argv)
    assert code == 0, err
    assert warm == cold
    records = json.loads(cold)["items"]
    for entry in (garbage, foreign):
        assert json.loads(entry.read_text()) in records
    assert sorted(p.suffix for p in cache.iterdir()) == [".json"] * len(records)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_audit_tol_must_be_non_negative(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--theorem", "3.1", "--primes-up-to", "7", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_survey_workers_clamped_to_cpu_count(monkeypatch):
    import os

    from zdgecc import survey

    started = []

    class SerialPool:
        def __init__(self, processes=None):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(survey.multiprocessing, "Pool", SerialPool)
    cpus = os.cpu_count() or 1
    records = survey.run_survey(12, workers=cpus + 1)
    assert started == ([cpus] if cpus > 1 else [])
    assert records == survey.run_survey(12)


@pytest.mark.parametrize(
    "argv", [("spectrum", "--n", "12"), ("survey", "--max-n", "12", "--workers", "2")]
)
def test_out_of_memory_exits_3_without_traceback(capsys, monkeypatch, argv):
    from zdgecc import survey

    def exhausted(n, variant):
        raise MemoryError("Unable to allocate 2.62 TiB for an array")

    monkeypatch.setattr(survey, "variant_graph", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "too large to build in memory" in err
    assert "Traceback" not in err


def test_max_power_must_be_non_negative(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--theorem", "5.1", "--max-power", "-1"])
    assert exc.value.code == 2
    assert "--max-power" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--n", str(2**62), "--variant", "extended"),
        ("spectrum", "--n", str(2**63)),
    ],
)
def test_modulus_beyond_numpy_index_range_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "too large to build in memory" in err
    assert "Traceback" not in err


def test_survey_cache_dir_turns_caching_on(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, out, err = run(capsys, "survey", "--max-n", "12", "--cache-dir", str(cache))
    assert code == 0, err
    assert len(list(cache.glob("*.json"))) == len(json.loads(out)["items"])


def _cli_subprocess(*argv):
    """Run the CLI in a child interpreter; a hang fails the test by timeout."""
    src = str(Path(zdgecc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "zdgecc.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_spectrum_huge_prime_power_compressed():
    proc = _cli_subprocess("spectrum", "--n", str(2**70), "--variant", "compressed")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["items"][0]["vertices"] == 69


def test_spectrum_huge_prime_exit_2():
    proc = _cli_subprocess("spectrum", "--n", str(10**39 + 3))
    assert proc.returncode == 2
    assert "zero divisors" in proc.stderr


def test_exact_spectrum_of_511_vertices_from_the_twin_quotient():
    import numpy as np

    from zdgecc.eccentricity import eccentricity_matrix
    from zdgecc.graphs import build_zdg

    proc = _cli_subprocess("spectrum", "--n", "1024", "--method", "exact", "--exact-cap", "600")
    assert proc.returncode == 0, proc.stderr
    item = json.loads(proc.stdout)["items"][0]
    assert item["vertices"] == 511
    got = [float(e["value"]) for e in item["spectrum"] for _ in range(e["multiplicity"])]
    want = np.linalg.eigvalsh(eccentricity_matrix(build_zdg(1024)).astype(float))
    # values are reported to 12 significant digits, so the bound is relative
    assert (np.abs(np.array(got) - want) <= 1e-9 * np.maximum(1.0, np.abs(want))).all()


def test_exact_spectrum_does_not_depend_on_cluster_tol(capsys):
    base = run_json(capsys, "spectrum", "--n", "27", "--method", "exact")
    wide = run_json(
        capsys, "spectrum", "--n", "27", "--method", "exact", "--cluster-tol", "20"
    )
    irrational = [e for e in wide["items"][0]["spectrum"] if not e["exact"]]
    assert irrational == [
        {"value": "-0.1789083458", "exact": False, "multiplicity": 1},
        {"value": "11.1789083458", "exact": False, "multiplicity": 1},
    ]
    assert wide["items"][0]["energy"] == "22.3578166916"
    del base["command"], wide["command"]
    assert wide == base


def test_exact_audit_runs_without_eigensolver(capsys, monkeypatch):
    from zdgecc import spectra

    def boom(*args, **kwargs):
        raise AssertionError("eigensolver called in exact mode")

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", boom)
    code, out, err = run(
        capsys, "audit", "--theorem", "3.2", "--primes", "3",
        "--expect-refutations", "3.2:p=3",
    )
    assert code == 0, err
    assert json.loads(out)["refutations"] == ["3.2:p=3"]
