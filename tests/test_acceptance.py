"""Release gates for the whole pipeline.

One test per gate, each ending in a single printed verdict line:

    ACCEPTANCE <n> PASS - <what was measured>

so a full run reads as a checklist.  Gates 3 and 4 share one reference
corpus and one trained-model zoo (built once per module); the corpus
generation and training cost is charged to gate 3's budget, and every
other gate's budget covers only its own work.

These are heavier than the unit suites but the whole file stays well
under the per-gate budgets on a single CPU.
"""

import json
import time

import numpy as np
import pytest

from maliot import bench, flows, models, sim
from maliot.broker import Broker, BrokerConfig, BrokerServer, InProcClient
from maliot.broker.core import partition_for_key
from maliot.cli import main as cli_main
from maliot.engine import codec_path_for
from maliot.features import encode_batch, fit_codec
from maliot.models import MlpConfig, TreeConfig
from maliot.models.tree import grow_tree

from conftest import rows
from test_mlp import _numeric_grad, _random_instance, _rel_err
from test_naive_bayes import oracle_posterior
from test_tree import OracleTree, oracle_best_split

KINDS = ("decision_tree", "random_forest", "gaussian_nb",
         "logistic_regression", "linear_svm", "ann")

# width-proportional kinds: per-row inference work scales with the input
# width, so the full regime (40 dims) structurally costs at least as much
# as de-identified (34).  Tree inference cost tracks tree depth instead,
# and de-identified trees grow deeper on the harder data, so tree kinds
# cannot carry this comparison.
WIDTH_PROPORTIONAL = ("gaussian_nb", "logistic_regression", "linear_svm")


def _verdict(request, number, ok, detail):
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {detail}"
    rep = request.config.pluginmanager.getplugin("terminalreporter")
    if rep is not None:
        rep.write_line(line)
    else:
        print(line)
    return line


# -- shared corpus and model zoo ------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    records = sim.generate(sim.SimConfig())  # 9 devices, 120 s, seed 0
    return {"records": records, "gen_s": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def zoo(corpus):
    """All six kinds trained on both feature regimes of one 80/20 split."""
    t0 = time.perf_counter()
    train_recs, held = bench.split_records(corpus["records"], 0.8, 0)
    z = {"records": corpus["records"]}
    for fs in ("full", "de_identified"):
        codec = fit_codec(train_recs, fs)
        Xtr, ytr = encode_batch(train_recs, codec)
        Xte, yte = encode_batch(held, codec)
        fitted = {}
        for kind in KINDS:
            cfg = MlpConfig(n_epoch=30) if kind == "ann" else None
            fitted[kind] = models.train(
                kind, Xtr, ytr, config=cfg, seed=0,
                codec_fingerprint=codec.fingerprint(),
            )
        z[fs] = {"codec": codec, "Xte": Xte, "yte": yte, "models": fitted}
    z["build_s"] = corpus["gen_s"] + (time.perf_counter() - t0)
    return z


# -- gate 1: classifier oracles -------------------------------------------------

def test_acceptance_1_classifier_oracles(request):
    t0 = time.perf_counter()
    rng = np.random.default_rng(401)

    # Gaussian NB vs closed-form posteriors on small datasets
    worst = 0.0
    gnb_sets = 0
    while gnb_sets < 30:
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(0, 3, size=(n, d)), 3)
        y = (rng.random(n) < 0.5).astype(np.int8)
        if y.min() == y.max():
            continue
        m = models.train("gaussian_nb", X, y)
        queries = np.vstack([X, rng.normal(0, 3, size=(3, d))])
        for q in queries:
            got = models.score_batch(m, q)[0]
            worst = max(worst, abs(got - oracle_posterior(X, y, q)))
        gnb_sets += 1
    gnb_ok = worst < 1e-9

    # decision tree vs exhaustive split enumeration, split and predictions
    tree_sets = 0
    trees_ok = True
    while tree_sets < 10:
        n = int(rng.integers(10, 51))
        d = int(rng.integers(2, 4))
        X = rng.integers(0, 6, size=(n, d)).astype(np.float64)
        y = (rng.random(n) < 0.5).astype(np.int8)
        if y.min() == y.max():
            continue
        want = oracle_best_split(X, y, list(range(n)))
        node = grow_tree(X, y, TreeConfig())
        if node["feature"][0] != want[0] or node["threshold"][0] != want[1]:
            trees_ok = False
        m = models.train("decision_tree", X, y)
        Q = np.vstack([X, rng.integers(-1, 7, size=(20, d)).astype(np.float64)])
        if not np.array_equal(models.score_batch(m, Q),
                              OracleTree(X, y).scores(Q)):
            trees_ok = False
        tree_sets += 1

    # the worked three-point example pins the midpoint rule
    m3 = models.train("decision_tree",
                      np.array([[1.0], [2.0], [10.0]]), np.array([0, 0, 1]))
    trees_ok = trees_ok and m3.params["threshold"][0] == 6.0

    elapsed = time.perf_counter() - t0
    ok = gnb_ok and trees_ok and elapsed < 1.0
    line = _verdict(request, 1, ok,
                    f"GNB worst |dP|={worst:.2e} over {gnb_sets} datasets; "
                    f"DT exact on {tree_sets} datasets; {elapsed:.2f}s < 1s")
    assert ok, line


# -- gate 2: gradient check ------------------------------------------------------

def test_acceptance_2_gradient_check(request):
    from maliot.models.mlp import gradient

    t0 = time.perf_counter()
    rng = np.random.default_rng(402)
    worst = 0.0
    checked = 0
    for _ in range(20):
        params, X, y = _random_instance(rng)
        clf_reg = float(rng.choice([0.0, 1e-5, 1e-2]))
        g = gradient(params, X, y, clf_reg)
        for key in ("W1", "b1", "W2", "b2"):
            arr = np.atleast_1d(np.asarray(g[key], dtype=float)).reshape(-1)
            for fi in rng.permutation(arr.size)[: min(4, arr.size)]:
                idx = (np.unravel_index(fi, np.shape(params[key]))
                       if key != "b2" else None)
                want = _numeric_grad(params, X, y, clf_reg, key, idx)
                worst = max(worst, _rel_err(float(arr[fi]), want))
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and checked >= 150 and elapsed < 10.0
    line = _verdict(request, 2, ok,
                    f"backprop vs central differences, worst rel err "
                    f"{worst:.2e} over 20 instances ({checked} entries); "
                    f"{elapsed:.2f}s < 10s")
    assert ok, line


# -- gate 3: accuracy ordering ----------------------------------------------------

def test_acceptance_3_accuracy_ordering(request, zoo):
    t0 = time.perf_counter()
    acc = {}
    for fs in ("full", "de_identified"):
        part = zoo[fs]
        for kind in KINDS:
            m = models.evaluate(part["models"][kind], part["Xte"], part["yte"])
            acc[(kind, fs)] = m.accuracy
    elapsed = zoo["build_s"] + (time.perf_counter() - t0)

    n_rows = len(zoo["records"])
    rf, dt = acc[("random_forest", "full")], acc[("decision_tree", "full")]
    order_ok = all(acc[(k, "de_identified")] <= acc[(k, "full")] for k in KINDS)
    ok = (n_rows >= 50000 and rf >= 0.99 and dt >= 0.99
          and order_ok and elapsed < 120.0)
    line = _verdict(request, 3, ok,
                    f"{n_rows} flows; RF full {rf:.4f}, DT full {dt:.4f} "
                    f"(>= 0.99); de-identified <= full for all 6 kinds: "
                    f"{order_ok}; {elapsed:.1f}s < 120s")
    assert ok, line


# -- gate 4: inference cost ordering ----------------------------------------------

def test_acceptance_4_timing_ordering(request, zoo):
    t0 = time.perf_counter()
    full, deid = zoo["full"], zoo["de_identified"]
    trained = [full["models"]["decision_tree"], full["models"]["random_forest"]]
    for kind in WIDTH_PROPORTIONAL:
        trained += [full["models"][kind], deid["models"][kind]]
    report = bench.bench_inference(
        trained, [full["codec"], deid["codec"]], zoo["records"], repetitions=5)
    rows = {(r["model_kind"], r["feature_set"], r["batch_size"]): r
            for r in report.rows if r["model_kind"] != "noop"}

    rf = rows[("random_forest", "full", 1)]["mean_us_per_row"]
    dt = rows[("decision_tree", "full", 1)]["mean_us_per_row"]
    ratio_ok = rf >= 1.5 * dt

    # amortized per-row cost: at batch size 1 the ~12us of per-call
    # dispatch overhead drowns the sub-microsecond width difference
    width_ok = True
    for kind in WIDTH_PROPORTIONAL:
        rf_ = rows[(kind, "full", 1000)]
        rd = rows[(kind, "de_identified", 1000)]
        tf = rf_["featurize_us_per_row"] + rf_["mean_us_per_row"]
        td = rd["featurize_us_per_row"] + rd["mean_us_per_row"]
        if tf < td:
            width_ok = False
    elapsed = time.perf_counter() - t0
    ok = ratio_ok and width_ok and elapsed < 120.0
    line = _verdict(request, 4, ok,
                    f"single-row RF {rf:.0f}us >= 1.5x DT {dt:.0f}us; "
                    f"amortized featurize+infer full >= de-identified for "
                    f"{len(WIDTH_PROPORTIONAL)} width-proportional kinds: "
                    f"{width_ok}; {elapsed:.1f}s < 120s")
    assert ok, line


# -- gate 5: scalability trend -----------------------------------------------------

def test_acceptance_5_scalability(request, zoo, tmp_path):
    t0 = time.perf_counter()
    model_path = tmp_path / "dt.json"
    models.save_model(zoo["full"]["models"]["decision_tree"], model_path)
    zoo["full"]["codec"].save(codec_path_for(model_path))

    report = bench.bench_scalability(
        str(model_path), str(tmp_path),
        n_devices_sweep=(1, 3, 5, 7, 9),
        sim_config=sim.SimConfig(duration_s=3.0, seed=0),
        rate_multiplier=1.0,
    )
    lat = {r["n_devices"]: r["mean_us_per_row"] for r in report.rows}
    conserved = all(r["produced"] > 0 and r["verdicts"] == r["produced"]
                    and r["parse_errors"] == 0 for r in report.rows)
    elapsed = time.perf_counter() - t0
    trend_ok = lat[9] <= 1.1 * lat[1]
    ok = conserved and trend_ok and elapsed < 300.0
    line = _verdict(request, 5, ok,
                    f"per-row latency {lat[1]:.0f}us at N=1 -> {lat[9]:.0f}us "
                    f"at N=9 (<= 1.1x); verdicts == produced at N in "
                    f"{{1,3,5,7,9}}: {conserved}; {elapsed:.1f}s < 300s")
    assert ok, line


# -- gate 6: broker delivery under crashes ------------------------------------------

def test_acceptance_6_at_least_once(request, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(406)
    crash_points = {int(x) for x in
                    rng.choice(np.arange(2, 46), size=20, replace=False)}

    with Broker(BrokerConfig(data_dir=str(tmp_path / "broker"))) as b:
        b.create_topic("t", 4)
        produced = {}
        for i in range(1000):
            key = f"dev-{i % 23:03d}"
            p, o = b.produce("t", key, json.dumps({"i": i}))
            produced[(p, o)] = key

        c = InProcClient(b, consumer_id="c")
        c.subscribe("g", "t")
        delivered = []
        crashes = 0
        batch_no = 0
        while sum(b.committed("g", "t").values()) < 1000:
            batch_no += 1
            assert batch_no < 300, "consumer loop failed to converge"
            msgs = rows(c.poll("g", "t", max_messages=25))
            delivered.extend((m.partition, m.offset, m.key) for m in msgs)
            if batch_no in crash_points:
                # die between emission and commit, then come back
                crashes += 1
                c.subscribe("g", "t")
                continue
            ends = {}
            for m in msgs:
                ends[m.partition] = max(ends.get(m.partition, -1), m.offset)
            if ends:
                b.commit("g", "t", {p: o + 1 for p, o in ends.items()})

    seen = {(p, o): k for p, o, k in delivered}
    lost = set(produced) - set(seen)
    dupes = len(delivered) - len(seen)
    per_part = {}
    for p, o, _ in delivered:
        per_part.setdefault(p, set()).add(o)
    gap_free = all(offs == set(range(max(offs) + 1))
                   for offs in per_part.values())
    affinity = (all(seen[k] == produced[k] for k in seen)
                and all(partition_for_key(k, 4) == p for (p, _), k in produced.items()))
    elapsed = time.perf_counter() - t0
    ok = (not lost and crashes == 20 and dupes > 0 and gap_free
          and affinity and elapsed < 60.0)
    line = _verdict(request, 6, ok,
                    f"1000 msgs, {crashes} crashes: 0 lost ({len(lost)}), "
                    f"{dupes} duplicate deliveries, gap-free {gap_free}, "
                    f"key affinity {affinity}; {elapsed:.1f}s < 60s")
    assert ok, line


# -- gate 7: round trips --------------------------------------------------------------

def test_acceptance_7_round_trips(request, zoo, tmp_path):
    t0 = time.perf_counter()
    records = zoo["records"]
    bad = sum(1 for r in records
              if flows.parse_record(flows.format_row(r), "maliot_csv") != r)

    rng = np.random.default_rng(407)
    width = zoo["full"]["Xte"].shape[1]
    Q = rng.normal(0, 1, size=(1000, width))
    drift = 0
    for kind in KINDS:
        m = zoo["full"]["models"][kind]
        path = tmp_path / f"{kind}.json"
        models.save_model(m, path)
        if not np.array_equal(models.score_batch(m, Q),
                              models.score_batch(models.load_model(path), Q)):
            drift += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and drift == 0 and elapsed < 30.0
    line = _verdict(request, 7, ok,
                    f"parse/write identity on {len(records)} flows "
                    f"({bad} mismatches); save/load scores bit-equal on 1000 "
                    f"inputs for {len(KINDS)} kinds ({drift} drifted); "
                    f"{elapsed:.1f}s < 30s")
    assert ok, line


# -- gate 8: end-to-end conservation ----------------------------------------------------

def test_acceptance_8_end_to_end(request, tmp_path, capsys):
    t0 = time.perf_counter()

    def pipeline(root):
        root.mkdir()
        data = root / "flows.csv"
        assert cli_main(["--seed", "5", "gen", "--devices", "4",
                         "--duration", "8", "--out", str(data)]) == 0
        capsys.readouterr()
        model = root / "model.json"
        assert cli_main(["train", "--model", "decision_tree",
                         "--data", str(data), "--out", str(model)]) == 0
        capsys.readouterr()
        with Broker(BrokerConfig(data_dir=str(root / "broker"))) as b, \
                BrokerServer(b) as srv:
            addr = f"127.0.0.1:{srv.port}"
            assert cli_main(["replay", "--broker", addr,
                             "--data", str(data)]) == 0
            counts = json.loads(capsys.readouterr().out)
            verdicts = root / "v.jsonl"
            assert cli_main(["serve", "--broker", addr, "--model", str(model),
                             "--sink-path", str(verdicts),
                             "--batch-interval-ms", "100",
                             "--idle-limit", "3"]) == 0
            err = capsys.readouterr().err
        summary = json.loads(err.strip().splitlines()[-1])
        with open(verdicts, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        return counts, summary, rows

    c1, s1, v1 = pipeline(tmp_path / "run1")
    c2, s2, v2 = pipeline(tmp_path / "run2")

    def key(rows):
        return sorted((r["device_id"], r["ts"], r["label"], r["score"],
                       r["model_version"], r["partition"], r["offset"])
                      for r in rows)

    conserved = (c1["rejected"] == 0 and len(v1) == c1["produced"]
                 and s1["parse_errors"] == 0)
    tagged = all(r["model_version"] == 1 for r in v1)
    reproducible = c1 == c2 and key(v1) == key(v2)
    elapsed = time.perf_counter() - t0
    ok = conserved and tagged and reproducible and elapsed < 60.0
    line = _verdict(request, 8, ok,
                    f"{c1['produced']} produced -> {len(v1)} verdicts, all "
                    f"tagged model_version=1: {tagged}; identical across two "
                    f"seeded runs: {reproducible}; {elapsed:.1f}s < 60s")
    assert ok, line
