"""Batched survey records: the batch equals the single-model pipeline record
for record, the class structure is read once per adjacency pattern, and
the numeric kernels run once per matrix order."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zdgecc
from zdgecc import exact_linalg, survey
from zdgecc.eccentricity import eccentricity_matrix
from zdgecc.exact_linalg import integrality_certificate, twin_partition
from zdgecc.graphs import VARIANTS, Decomposition
from zdgecc.number_theory import is_prime
from zdgecc.report import spectral_fields, structure_fields
from zdgecc.spectra import _class_matrices, _eigenvalues_checked, spectrum


def _composites(lo, hi):
    return [n for n in range(lo, hi + 1) if not is_prime(n)]


def _reference(n, variant, *, structure_only=False, exact_cap=150, cluster_tol=1e-6):
    """A survey record assembled from the single-model paths: the class
    model's structure, its float spectrum and its own certificate."""
    model = Decomposition.of(n, variant)
    rec = {"kind": "survey", "n": n, "variant": variant, **structure_fields(model)}
    if structure_only:
        return rec
    spec = spectrum(model, "float", cluster_tol=cluster_tol)
    rec.update(spectral_fields(model, spec, rec["connected"]))
    cert = model.certificate if model.n_vertices <= exact_cap else None
    rec["integral"] = None if cert is None else cert.integral
    rec["residual"] = None if cert is None or cert.integral else cert.residual.text()
    return rec


@pytest.fixture
def fresh_models():
    """Fresh class models before and after: no cached sample or certificate."""
    Decomposition.of.cache_clear()
    yield
    Decomposition.of.cache_clear()


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_survey_equals_records_one_at_a_time(variant, fresh_models):
    batched = survey.run_survey(400, variant)
    Decomposition.of.cache_clear()
    alone = [survey.survey_record(n, variant) for n in _composites(4, 400)]
    assert batched == alone


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_records_equal_the_single_model_pipeline(variant, fresh_models):
    ns = _composites(4, 400)
    batched = survey.survey_records(ns, variant)
    Decomposition.of.cache_clear()
    assert batched == [_reference(n, variant) for n in ns]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("structure_only", [False, True])
def test_records_across_the_exact_cap_boundary(variant, structure_only, fresh_models):
    cap = 12 if variant == "compressed" else 150
    ns = [n for n in _composites(4, 400)
          if abs(Decomposition.of(n, variant).n_vertices - cap) <= 10]
    orders = [Decomposition.of(n, variant).n_vertices for n in ns]
    assert min(orders) <= cap < max(orders)
    opts = {"structure_only": structure_only, "exact_cap": cap}
    batched = survey.survey_records(ns, variant, **opts)
    Decomposition.of.cache_clear()
    assert batched == [_reference(n, variant, **opts) for n in ns]
    if not structure_only:
        assert [r["integral"] is None for r in batched] == [v > cap for v in orders]


def test_a_batch_mixing_quotient_orders(fresh_models):
    ns = [8, 12, 36, 60, 64, 72, 96, 120, 144, 210, 360]
    orders = {len(twin_partition(Decomposition.of(n, "zdg").sample_ecc)) for n in ns}
    assert len(orders) >= 5
    batched = survey.survey_records(ns, "zdg")
    Decomposition.of.cache_clear()
    assert batched == [_reference(n, "zdg") for n in ns]


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_certificates_equal_the_sample_certificate(variant, fresh_models):
    jobs, groups = [], survey._groups(Decomposition.of(n, variant) for n in _composites(4, 300))
    for group in groups:
        pattern = group[0]
        eigenvalues = _eigenvalues_checked(_class_matrices(pattern.ecc, [m.sizes for m in group]))
        jobs.append((pattern.sample_ecc, [m.sample_weights for m in group], list(eigenvalues)))
    for group, certs in zip(groups, exact_linalg._certificates(jobs)):
        for model, cert in zip(group, certs):
            weights = [*model.sizes, *[0] * len(model._seconds)]
            assert cert == integrality_certificate(model.sample_ecc, weights), model.n
            assert cert == model.certificate, model.n


def test_batched_certificates_of_matrices_without_eigenvalues():
    """Weightings of one matrix, seeded by ``_seeds``, and a matrix with
    none: each equals the certificate of that weighting alone."""
    group = max(survey._groups(Decomposition.of(n, "zdg") for n in _composites(4, 300)), key=len)
    mat, weightings = group[0].sample_ecc, [m.sample_weights for m in group]
    dense = eccentricity_matrix(Decomposition.of(60, "zdg").dense())
    certs, [alone] = exact_linalg._certificates([(mat, weightings, None), (dense, None, None)])
    assert len(weightings) >= 3
    assert certs == [integrality_certificate(mat, w) for w in weightings]
    assert alone == integrality_certificate(dense)


def test_structure_once_per_pattern_and_kernels_once_per_order(monkeypatch, fresh_models):
    ns = _composites(4, 100)
    models = [Decomposition.of(n, "zdg") for n in ns]
    patterns = survey._groups(models)
    orders = {len(m.sizes) for m in models}
    quotient_orders = {len(twin_partition(m.sample_ecc)) for m in models}
    want = [_reference(n, "zdg") for n in ns]
    Decomposition.of.cache_clear()
    calls = {"twin_partition": 0, "eigh": [], "char_poly": []}
    twins, eigh, polys = (exact_linalg.twin_partition, survey._eigenvalues_checked,
                          exact_linalg._char_polys_of_order)

    def count_twins(mat):
        calls["twin_partition"] += 1
        return twins(mat)

    def count_eigh(stack):
        calls["eigh"].append(stack.shape[-1])
        return eigh(stack)

    def count_polys(stack):
        calls["char_poly"].append(stack.shape[-1])
        return polys(stack)

    monkeypatch.setattr(exact_linalg, "twin_partition", count_twins)
    monkeypatch.setattr(survey, "_eigenvalues_checked", count_eigh)
    monkeypatch.setattr(exact_linalg, "_char_polys_of_order", count_polys)
    assert survey.survey_records(ns, "zdg") == want
    assert len(patterns) < len(ns)
    assert calls["twin_partition"] == len(patterns)
    assert sorted(calls["eigh"]) == sorted(orders)
    assert sorted(calls["char_poly"]) == sorted(quotient_orders)


def test_cache_entries_are_named_after_their_key_material(tmp_path):
    survey.run_survey(12, cache_dir=tmp_path)
    survey.run_survey(12, "complement", structure_only=True, cluster_tol=0.5, cache_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    version = zdgecc.__version__
    assert names == [f"complement_max12_cap150_tol0.5_v{version}_eigh_class_structure.json",
                     f"zdg_max12_cap150_tol1e-06_v{version}_eigh_class.json"]


def _loaded_after_survey(modules) -> list[str]:
    """Those of ``modules`` a fresh interpreter has loaded after importing
    the CLI and running a two-worker survey."""
    code = ("import sys, zdgecc.cli; from zdgecc.survey import run_survey; "
            f"run_survey(30, workers=2); print(*[m for m in {modules!r} if m in sys.modules])")
    src = str(Path(zdgecc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    return out.stdout.split()


def test_survey_imports_no_hashlib():
    """hashlib maps libcrypto into every process that loads it."""
    assert _loaded_after_survey(["hashlib"]) == []


def test_unknown_variant_is_refused_before_any_cache_entry(tmp_path):
    with pytest.raises(ValueError, match="unknown variant"):
        survey.run_survey(12, "../zdg", cache_dir=tmp_path / "cache")
    assert not (tmp_path / "cache").exists()


def test_survey_cache_serves_only_entries_named_for_the_same_key(tmp_path):
    """A planted survey is served under the current name and ignored under
    the name of another version, tolerance, cap, eigensolver, engine, record
    kind or range, and under the per-record name of earlier versions."""
    want = survey.run_survey(12, cache_dir=tmp_path / "fresh")
    version = zdgecc.__version__
    stale = ["zdg_max12_cap150_tol1e-06_v0.0.9_eigh_class.json",
             f"zdg_max12_cap150_tol1e-07_v{version}_eigh_class.json",
             f"zdg_max12_cap100_tol1e-06_v{version}_eigh_class.json",
             f"zdg_max12_cap150_tol1e-06_v{version}_eigvalsh_class.json",
             f"zdg_max12_cap150_tol1e-06_v{version}_eigh_dense.json",
             f"zdg_max12_cap150_tol1e-06_v{version}_eigh_class_structure.json",
             f"zdg_max13_cap150_tol1e-06_v{version}_eigh_class.json",
             f"zdg_n12_cap150_tol1e-06_v{version}_eigh_class.json"]
    planted = [*want[:-1], {**want[-1], "energy": "planted"}]
    cache = tmp_path / "cache"
    cache.mkdir()
    for name in stale:
        (cache / name).write_text(json.dumps(planted if "_max" in name else planted[-1]))
    assert survey.run_survey(12, cache_dir=cache) == want
    (cache / f"zdg_max12_cap150_tol1e-06_v{version}_eigh_class.json").write_text(json.dumps(planted))
    assert survey.run_survey(12, cache_dir=cache) == planted


def test_survey_imports_no_multiprocessing():
    """Survey workers are plain forks: no process-pool or socket machinery."""
    assert _loaded_after_survey(["multiprocessing", "subprocess", "socket", "selectors"]) == []


forking = pytest.mark.skipif(not survey._FORK, reason="surveys run inline without fork")


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two workers fork one child whatever the machine's CPU count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@forking
def test_fork_map_computes_the_first_task_here_and_the_rest_in_children():
    parent = os.getpid()
    results = survey._fork_map(lambda t: (t * t, os.getpid()), [1, 2, 3])
    assert [r for r, _ in results] == [1, 4, 9]
    pids = [pid for _, pid in results]
    assert pids[0] == parent and parent not in pids[1:] and len(set(pids)) == 3
    _assert_no_children()


def _in_children(monkeypatch, act):
    """``survey._records`` runs ``act()`` first in every forked child."""
    parent, records = os.getpid(), survey._records

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            act()
        return records(*args, **kwargs)

    monkeypatch.setattr(survey, "_records", patched)


@forking
def test_memory_error_in_a_child_exits_3(capsys, monkeypatch, two_cpus):
    from zdgecc.cli import main

    def exhausted():
        raise MemoryError("Unable to allocate 2.62 TiB for an array")

    _in_children(monkeypatch, exhausted)
    code = main(["survey", "--max-n", "40", "--workers", "2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "error: too large to build in memory: Unable to allocate 2.62 TiB for an array\n"
    _assert_no_children()


@forking
def test_a_killed_child_raises_instead_of_hanging(monkeypatch, two_cpus, tmp_path):
    _in_children(monkeypatch, lambda: os.kill(os.getpid(), 9))
    with pytest.raises(RuntimeError, match=r"survey worker \d+ was killed by signal 9"):
        survey.run_survey(40, workers=2, cache_dir=tmp_path)
    _assert_no_children()


def _fork_fails(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


@forking
@pytest.mark.parametrize("fault, message", [
    (lambda mp: _in_children(mp, lambda: os.kill(os.getpid(), 9)),
     r"survey worker \d+ was killed by signal 9 \(Killed\) without a result"),
    (_fork_fails, r"cannot start a survey worker: \[Errno 11\] Resource temporarily unavailable"),
], ids=["killed", "fork-fails"])
@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_a_failed_worker_exits_3_with_one_error_line(capsys, monkeypatch, two_cpus, tmp_path,
                                                     fault, message, cached):
    """A worker that cannot start or dies without a result is one stderr
    line and exit 3, with or without a cache, which it leaves empty."""
    from zdgecc.cli import main

    fault(monkeypatch)
    cache = ["--cache-dir", str(tmp_path / "cache")] if cached else []
    code = main(["survey", "--max-n", "40", "--workers", "2", *cache])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert re.fullmatch(f"error: {message}\n", err)
    assert not cached or not any((tmp_path / "cache").iterdir())
    _assert_no_children()


@forking
def test_children_are_killed_when_the_parent_raises(monkeypatch, two_cpus):
    import time

    parent, records = os.getpid(), survey._records

    def patched(*args, **kwargs):
        if os.getpid() == parent:
            raise ValueError("the parent's share failed")
        time.sleep(60)
        return records(*args, **kwargs)

    monkeypatch.setattr(survey, "_records", patched)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the parent's share failed"):
        survey.run_survey(40, workers=2)
    assert time.monotonic() - start < 30
    _assert_no_children()


@forking
def test_only_the_parent_touches_the_cache(capsys, monkeypatch, two_cpus, tmp_path):
    """Forked children open nothing in the cache directory; the parent reads
    the entry once and writes it once, the same bytes as an inline survey's,
    and leaves no temp file; a warm pass over it is byte-identical to the
    cold pass."""
    import builtins
    import io

    from zdgecc.cli import main

    forked, opened, real_open = tmp_path / "forked", tmp_path / "opened", io.open

    def logged_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file).startswith(str(forked)):
            with real_open(opened, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", logged_open)
    monkeypatch.setattr(builtins, "open", logged_open)
    argv = ["survey", "--max-n", "100", "--cache-dir"]
    reports = []
    for cache, workers in [("forked", "2"), ("forked", "2"), ("inline", "1")]:
        assert main([*argv, str(tmp_path / cache), "--workers", workers]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    # the cold pass reads (a miss) and writes, the warm pass reads
    assert opened.read_text().split() == [str(os.getpid())] * 3
    [entry], [inline] = forked.iterdir(), (tmp_path / "inline").iterdir()
    assert entry.name == inline.name and entry.suffix == ".json"
    assert entry.read_bytes() == inline.read_bytes()
    assert [rec["n"] for rec in json.loads(entry.read_text())] == _composites(4, 100)
    _assert_no_children()


def _logged_fork_map(monkeypatch) -> list:
    """The tasks of every ``survey._fork_map`` call, which still runs."""
    calls, fork_map = [], survey._fork_map

    def logged(fn, tasks):
        calls.append(tasks)
        return fork_map(fn, tasks)

    monkeypatch.setattr(survey, "_fork_map", logged)
    return calls


@pytest.mark.parametrize("max_n, workers, fork", [(60, 1, True), (5, 2, True), (60, 2, False)],
                         ids=["one-worker", "one-group", "no-fork"])
def test_an_inline_survey_is_one_task_of_fork_map(monkeypatch, two_cpus, max_n, workers, fork):
    """One worker, one pattern group, or no fork: ``_fork_map`` gets one
    task, computed here, and never forks."""
    def fork_forbidden():
        raise AssertionError("an inline survey forked")

    want = survey.survey_records(_composites(4, max_n))
    calls = _logged_fork_map(monkeypatch)
    monkeypatch.setattr(os, "fork", fork_forbidden, raising=False)
    monkeypatch.setattr(survey, "_FORK", fork)
    assert survey.run_survey(max_n, workers=workers) == want
    assert len(calls) == 1 and len(calls[0]) == 1
    _assert_no_children()


@forking
def test_groups_are_dealt_whole_round_robin_largest_first(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    ns = _composites(4, 300)
    want = survey.run_survey(300)
    groups = [[m.n for m in g] for g in survey._groups(Decomposition.of(n, "zdg") for n in ns)]
    calls = _logged_fork_map(monkeypatch)
    assert survey.run_survey(300, workers=3) == want
    [tasks] = [[[[m.n for m in g] for g in task] for task in call] for call in calls]
    assert len(tasks) == 3
    dealt = [tasks[i % 3][i // 3] for i in range(len(groups))]
    assert sum(map(len, tasks)) == len(groups)
    assert sorted(dealt) == sorted(groups)
    assert [len(g) for g in dealt] == sorted(map(len, groups), reverse=True)
    _assert_no_children()


@forking
def test_fewer_groups_than_workers_fork_one_child_per_group_past_the_first(monkeypatch):
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "fork", counted_fork)
    groups = survey._groups(Decomposition.of(n, "zdg") for n in _composites(4, 12))
    assert 1 < len(groups) < 8
    assert survey.run_survey(12, workers=8) == survey.survey_records(_composites(4, 12))
    assert len(forks) == len(groups) - 1
    _assert_no_children()


@forking
def test_a_forked_survey_child_runs_one_blas_thread(monkeypatch, two_cpus):
    blas = survey._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    get, set_ = blas
    before = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS does not run two threads here")
        parent = os.getpid()
        monkeypatch.setattr(survey, "_records", lambda groups, **opts: [
            {"n": m.n, "pid": os.getpid(), "threads": get()} for group in groups for m in group])
        records = survey.run_survey(60, workers=2)
        assert {rec["pid"] == parent for rec in records} == {True, False}  # a child computed some
        assert {rec["threads"] for rec in records} == {1}
        assert get() == 2  # the parent's count is restored
    finally:
        set_(before)
    _assert_no_children()


def test_factorizations_are_cached_within_a_bound(fresh_models):
    """A survey leaves at most the cache's bound of factorizations behind,
    and a model still factors its n once."""
    from zdgecc.number_theory import factorize

    factorize.cache_clear()
    survey.run_survey(3000)
    info = factorize.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < info.misses
    factorize.cache_clear()
    Decomposition.of(720720, "extended")
    assert factorize.cache_info()[:2] == (1, 1)  # (hits, misses)
    _assert_no_children()
