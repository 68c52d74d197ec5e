"""Traffic generator: determinism, role assignment, separability."""

import numpy as np
import pytest

from maliot import models, sim
from maliot.broker import Broker, BrokerConfig, InProcClient
from maliot.errors import BadConfigError
from maliot.features import encode_batch, fit_codec
from maliot.flows import format_row

from conftest import rows


def _cfg(**kw):
    base = dict(n_devices=6, duration_s=6.0, seed=3)
    base.update(kw)
    return sim.SimConfig(**base)


def test_generation_is_deterministic():
    a = sim.generate(_cfg())
    b = sim.generate(_cfg())
    assert a == b
    assert [format_row(r) for r in a] == [format_row(r) for r in b]


def test_different_seed_differs():
    a = sim.generate(_cfg())
    b = sim.generate(_cfg(seed=4))
    assert a != b


def test_flows_sorted_by_timestamp():
    records = sim.generate(_cfg())
    ts = [r.ts for r in records]
    assert ts == sorted(ts)


def test_malicious_device_count_is_rounded_fraction():
    for n in (1, 3, 9, 100, 1000):
        roles = [sim.behavior_for_index(i, 0.349) for i in range(n)]
        bad = sum(1 for r in roles if r.startswith("mal_"))
        assert bad == round(0.349 * n), n


def test_roles_stable_as_fleet_grows():
    # adding devices never reassigns an existing one (substream stability)
    big = [sim.behavior_for_index(i, 0.349) for i in range(50)]
    for n in (3, 9, 20):
        assert [sim.behavior_for_index(i, 0.349) for i in range(n)] == big[:n]


def test_device_streams_stable_across_fleet_sizes():
    few = sim.generate(_cfg(n_devices=3))
    many = sim.generate(_cfg(n_devices=6))
    for dev in sorted({r.device_id for r in few}):
        a = [format_row(r) for r in few if r.device_id == dev]
        b = [format_row(r) for r in many if r.device_id == dev]
        assert a == b, dev


def test_default_fleet_covers_all_behaviors():
    roles = [sim.behavior_for_index(i, 0.349) for i in range(9)]
    assert set(roles) == set(sim.BEHAVIORS)


def test_labels_follow_device_roles():
    records = sim.generate(_cfg(n_devices=9))
    devices = {r.device_id for r in records}
    assert len(devices) == 9
    for i in range(9):
        dev_records = [r for r in records if r.device_id == f"dev-{i:04d}"]
        want = ("anomaly" if sim.behavior_for_index(i, 0.349).startswith("mal_")
                else "benign")
        assert {r.label for r in dev_records} == {want}


def test_label_ratio_tracks_device_fraction():
    records = sim.generate(sim.SimConfig(n_devices=9, duration_s=20.0, seed=0))
    frac = sum(r.label == "anomaly" for r in records) / len(records)
    assert abs(frac - 0.349) < 0.05


def test_known_attack_signatures_present():
    records = sim.generate(sim.SimConfig(n_devices=9, duration_s=10.0, seed=1))
    ddos = [r for r in records if r.dst_ip == sim.DDOS_TARGET]
    beacons = [r for r in records if r.dst_ip == sim.CNC_SERVER]
    scans = [r for r in records
             if r.label == "anomaly" and r.conn_state in ("REJ", "S0")
             and r.dst_ip not in (sim.DDOS_TARGET, sim.CNC_SERVER)]
    assert ddos and beacons and scans
    assert all(r.conn_state == "S0" and r.resp_pkts == 0 for r in ddos)
    assert all(r.dst_port == 6667 for r in beacons)
    ports = {r.dst_port for r in scans}
    assert len(ports) > 50                      # scanner sweeps the port space


def test_separable_with_full_features():
    records = sim.generate(sim.SimConfig(n_devices=9, duration_s=12.0, seed=2))
    cut = int(len(records) * 0.8)
    codec = fit_codec(records[:cut], "full")
    X, y = encode_batch(records[:cut], codec)
    Xt, yt = encode_batch(records[cut:], codec)
    m = models.train("decision_tree", X, y)
    assert models.evaluate(m, Xt, yt).accuracy >= 0.99


def test_overlap_degrades_separability():
    quiet = sim.generate(sim.SimConfig(n_devices=9, duration_s=10.0, seed=5))
    noisy = sim.generate(sim.SimConfig(n_devices=9, duration_s=10.0, seed=5,
                                       overlap=0.6))

    def deid_accuracy(records):
        cut = int(len(records) * 0.8)
        codec = fit_codec(records[:cut], "de_identified")
        X, y = encode_batch(records[:cut], codec)
        Xt, yt = encode_batch(records[cut:], codec)
        m = models.train("decision_tree", X, y)
        return models.evaluate(m, Xt, yt).accuracy

    assert deid_accuracy(noisy) < deid_accuracy(quiet)


def test_equal_rates_per_device():
    records = sim.generate(sim.SimConfig(n_devices=4, duration_s=30.0, seed=7))
    counts = {}
    for r in records:
        counts[r.device_id] = counts.get(r.device_id, 0) + 1
    mean = np.mean(list(counts.values()))
    assert all(abs(c - mean) / mean < 0.15 for c in counts.values())


def test_bad_config_rejected():
    for kw in (dict(n_devices=0), dict(duration_s=0),
               dict(anomaly_device_fraction=1.5), dict(rate_flows_per_s=-1),
               dict(overlap=2.0)):
        with pytest.raises(BadConfigError):
            sim.generate(_cfg(**kw))


def test_generate_to_file_round_trips(tmp_path):
    from maliot.flows import read_dataset
    path = tmp_path / "gen.csv"
    n = sim.generate_to_file(_cfg(), path)
    rows, stats = read_dataset(path, "maliot_csv")
    assert stats.rows_rejected == 0
    assert len(rows) == n
    assert rows == sim.generate(_cfg())


def test_replay_produces_everything(tmp_path):
    records = sim.generate(_cfg(n_devices=3, duration_s=2.0))
    with Broker(BrokerConfig(data_dir=str(tmp_path / "b"))) as broker:
        broker.create_topic("flows", 3)
        n = sim.replay(records, InProcClient(broker), "flows")
        assert n == len(records)
        total = sum(broker.partition_length("flows", p) for p in range(3))
        assert total == len(records)
        # key affinity: every device lands on exactly one partition
        client = InProcClient(broker)
        client.subscribe("g", "flows")
        seen = {}
        while True:
            batch = rows(client.poll("g", "flows", 1000))
            if not batch:
                break
            for m in batch:
                seen.setdefault(m.key, set()).add(m.partition)
        assert all(len(parts) == 1 for parts in seen.values())
