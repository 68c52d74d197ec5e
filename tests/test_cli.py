"""Command-line interface: help coverage, exit codes, workflows."""

import json
import os
import signal
import socket
import subprocess
import sys

import pytest

from maliot.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_NETWORK,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)

SUBCOMMANDS = ("gen", "train", "broker", "serve", "replay", "bench", "retrain")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- help and parser hygiene --------------------------------------------------

def test_every_subcommand_has_help(capsys):
    for sub in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert sub in text


def test_main_returns_zero_for_help(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_defaults_documented_in_help(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gen", "--help"])
    text = capsys.readouterr().out
    for fragment in ("default: 9", "default: 120", "default: 50",
                     "default: 0.349"):
        assert fragment in text, fragment


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


# -- exit code mapping --------------------------------------------------------

def test_unknown_model_kind_exits_2(tmp_path, capsys):
    code, _, _ = run(["train", "--model", "cnn", "--data", "x", "--out", "y"],
                     capsys)
    assert code == EXIT_USAGE


def test_gen_without_destination_exits_2(capsys):
    code, _, err = run(["gen"], capsys)
    assert code == EXIT_USAGE
    assert "required" in err


def test_gen_zero_devices_exits_2(tmp_path, capsys):
    code, _, _ = run(["gen", "--devices", "0",
                      "--out", str(tmp_path / "x.csv")], capsys)
    assert code == EXIT_USAGE


def test_missing_data_file_exits_4(tmp_path, capsys):
    code, _, _ = run(["train", "--model", "decision_tree",
                      "--data", str(tmp_path / "missing.csv"),
                      "--out", str(tmp_path / "m.json")], capsys)
    assert code == EXIT_IO


def test_empty_dataset_exits_3(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("ts,src_ip,src_port,dst_ip,dst_port,proto,service,duration,"
                   "orig_bytes,resp_bytes,conn_state,missed_bytes,orig_pkts,"
                   "orig_ip_bytes,resp_pkts,resp_ip_bytes,label,device_id\n")
    code, _, _ = run(["train", "--model", "decision_tree",
                      "--data", str(bad), "--out", str(tmp_path / "m.json")],
                     capsys)
    assert code == EXIT_DATA


def test_unreachable_broker_exits_5(tmp_path, capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    flows = tmp_path / "f.csv"
    assert run(["gen", "--devices", "2", "--duration", "1",
                "--out", str(flows)], capsys)[0] == EXIT_OK
    code, _, _ = run(["replay", "--broker", f"127.0.0.1:{port}",
                      "--data", str(flows)], capsys)
    assert code == EXIT_NETWORK


@pytest.mark.parametrize("argv, key", [
    (["replay", "--broker", "127.0.0.1:99999", "--data", "missing.csv"], "broker"),
    (["serve", "--broker", "127.0.0.1:0", "--model", "missing.json"], "broker"),
    (["replay", "--broker", "127.0.0.1:\u00b2", "--data", "missing.csv"], "broker"),
    (["gen", "--devices", "1", "--duration", "1",
      "--to-broker", "127.0.0.1:65536"], "to-broker"),
])
def test_broker_address_with_a_bad_port_exits_2(capsys, argv, key):
    # an unchecked 99999 would reach connect() as 99999 & 0xFFFF = 34463
    code, _, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert f"maliot: {key}: bad address" in err


@pytest.mark.parametrize("port", ["99999", "-1"])
def test_broker_listen_port_out_of_range_exits_2(tmp_path, capsys, port):
    code, _, err = run(["broker", "--data-dir", str(tmp_path / "b"),
                        "--port", port], capsys)
    assert code == EXIT_USAGE
    assert f"maliot: port: {port} is outside 0-65535" in err


@pytest.mark.parametrize("argv, flag", [
    (["broker", "--create-topic", "t:0"], "--create-topic"),
    (["broker", "--create-topic", "t:x"], "--create-topic"),
    (["replay", "--partitions", "0", "--data", "missing.csv"], "--partitions"),
    # refused before it tries the network
    (["gen", "--devices", "1", "--duration", "1", "--partitions", "-1",
      "--to-broker", "127.0.0.1:1"], "--partitions"),
])
def test_a_partition_count_below_one_is_a_usage_error(tmp_path, capsys, argv, flag):
    if argv[0] == "broker":
        argv = [*argv, "--data-dir", str(tmp_path / "b")]
    code, _, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert f"argument {flag}: partition count" in err
    assert not (tmp_path / "b").exists()


def test_a_partition_count_below_one_in_a_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("partitions = 0\n")
    code, _, err = run(["--config", str(cfg), "replay", "--data", "missing.csv"],
                       capsys)
    assert code == EXIT_USAGE
    assert "maliot: partitions: partition count '0'" in err


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    code, _, _ = run(["--config", str(cfg), "gen", "--out", "-"], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("line, key", [("gen.devices = many", "gen.devices"),
                                       ("seed = x", "seed")])
def test_bad_number_in_config_file_exits_2(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run(["--config", str(cfg), "gen", "--out", "-"], capsys)
    assert code == EXIT_USAGE
    assert key in err


def _unused_addr():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{probe.getsockname()[1]}"


def test_serve_has_no_tcp_sink(tmp_path, capsys):
    flows, model = tmp_path / "f.csv", tmp_path / "m.json"
    run(["gen", "--devices", "2", "--duration", "1", "--out", str(flows)],
        capsys)
    run(["train", "--model", "gaussian_nb", "--data", str(flows),
         "--out", str(model)], capsys)
    broker = _unused_addr()
    code, _, _ = run(["serve", "--broker", broker, "--model", str(model),
                      "--sink", "tcp"], capsys)
    assert code == EXIT_USAGE
    cfg = tmp_path / "serve.cfg"
    cfg.write_text("serve.sink = tcp\n")
    code, _, err = run(["--config", str(cfg), "serve", "--broker", broker,
                        "--model", str(model)], capsys)
    assert code == EXIT_USAGE
    assert "sink 'tcp'" in err


def test_serve_with_a_truncated_codec_exits_4(tmp_path, capsys):
    flows, model = tmp_path / "f.csv", tmp_path / "m.json"
    run(["gen", "--devices", "2", "--duration", "1", "--out", str(flows)],
        capsys)
    run(["train", "--model", "gaussian_nb", "--data", str(flows),
         "--out", str(model)], capsys)
    codec = tmp_path / "m.codec.json"
    codec.write_text(codec.read_text()[:40])
    code, _, err = run(["serve", "--broker", _unused_addr(),
                        "--model", str(model)], capsys)
    assert code == EXIT_IO
    assert "bad codec" in err


def test_serve_restores_signal_handlers(tmp_path, capsys):
    before = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
    code, _, _ = run(["serve", "--broker", _unused_addr(),
                      "--model", str(tmp_path / "missing.json")], capsys)
    assert code == EXIT_IO
    assert (signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM)) == before


# -- gen ----------------------------------------------------------------------

def test_gen_deterministic_files(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(["--seed", "5", "gen", "--devices", "3",
                          "--duration", "2", "--out", str(path)], capsys)
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_to_stdout(capsys):
    code, out, _ = run(["gen", "--devices", "2", "--duration", "1",
                        "--out", "-"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("ts,src_ip")
    assert len(lines) > 50


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("# fleet\ngen.devices = 2\nduration = 1\nseed = 8\n")
    out_path = tmp_path / "c.csv"
    code, _, _ = run(["--config", str(cfg), "gen", "--out", str(out_path)],
                     capsys)
    assert code == EXIT_OK
    rows = out_path.read_text().splitlines()[1:]
    devices = {r.split(",")[-1] for r in rows}
    assert len(devices) == 2


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("gen.devices = 2\nduration = 1\n")
    out_path = tmp_path / "c.csv"
    code, _, _ = run(["--config", str(cfg), "gen", "--devices", "4",
                      "--out", str(out_path)], capsys)
    assert code == EXIT_OK
    rows = out_path.read_text().splitlines()[1:]
    assert len({r.split(",")[-1] for r in rows}) == 4


# -- train --------------------------------------------------------------------

def test_train_emits_metrics_json(tmp_path, capsys):
    flows = tmp_path / "f.csv"
    run(["gen", "--devices", "4", "--duration", "3", "--out", str(flows)],
        capsys)
    model = tmp_path / "dt.json"
    code, out, _ = run(["train", "--model", "decision_tree",
                        "--data", str(flows), "--out", str(model)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "decision_tree"
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert set(doc["confusion"]) == {"tp", "fp", "tn", "fn"}
    assert os.path.exists(model)
    assert os.path.exists(tmp_path / "dt.codec.json")


def test_train_deid_alias(tmp_path, capsys):
    flows = tmp_path / "f.csv"
    run(["gen", "--devices", "4", "--duration", "2", "--out", str(flows)],
        capsys)
    code, out, _ = run(["train", "--model", "gaussian_nb", "--features",
                        "deid", "--data", str(flows),
                        "--out", str(tmp_path / "g.json")], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["feature_set"] == "de_identified"


def test_train_skips_unlabeled_rows(tmp_path, capsys):
    # README: unlabeled rows are scored but never trained on
    flows = tmp_path / "f.csv"
    run(["--seed", "5", "gen", "--devices", "3", "--duration", "2",
         "--out", str(flows)], capsys)
    lines = flows.read_text(encoding="utf-8").split("\n")
    cells = lines[1].split(",")
    cells[16] = "-"
    lines[1] = ",".join(cells)
    flows.write_text("\n".join(lines), encoding="utf-8")
    code, out, _ = run(["train", "--model", "decision_tree", "--data", str(flows),
                        "--out", str(tmp_path / "m.json")], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rows"] == len(lines) - 2  # less the header and the final ""
    assert sum(doc["confusion"].values()) == (doc["rows"] - 1) - int(0.8 * (doc["rows"] - 1))


def test_train_and_retrain_write_codec_before_model(tmp_path, capsys,
                                                   monkeypatch):
    # serve --watch-model reacts to the model file, so it must come last
    from maliot import models
    from maliot.features import FeatureCodec
    from maliot.flows import write_records
    from maliot.sim import SimConfig, generate

    written = []
    save_model, save_codec = models.save_model, FeatureCodec.save
    monkeypatch.setattr(models, "save_model", lambda m, path: (
        written.append(os.path.basename(path)), save_model(m, path)))
    monkeypatch.setattr(FeatureCodec, "save", lambda self, path: (
        written.append(os.path.basename(path)), save_codec(self, path)))
    persist = tmp_path / "persist"
    persist.mkdir()
    write_records(generate(SimConfig(n_devices=4, duration_s=2.0, seed=3)),
                  persist / "flows-0-2024010100.csv")
    code, _, _ = run(["train", "--model", "gaussian_nb", "--data",
                      str(persist / "flows-0-2024010100.csv"),
                      "--out", str(tmp_path / "m.json")], capsys)
    assert code == EXIT_OK
    code, _, _ = run(["retrain", "--persist-dir", str(persist), "--model",
                      "gaussian_nb", "--out", str(tmp_path / "m.json")], capsys)
    assert code == EXIT_OK
    assert written == ["m.codec.json", "m.json"] * 2


# -- full pipeline over TCP ---------------------------------------------------

@pytest.fixture
def live_broker(tmp_path):
    """A broker subcommand running in a thread, tearing down via max-cycles
    style stop: we drive it through its own SIGINT-free path by closing
    after the test."""
    from maliot.broker import Broker, BrokerConfig, BrokerServer

    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "bdata")))
    broker.create_topic("flows", 3)
    server = BrokerServer(broker, port=0)
    server.start()
    yield f"{server.host}:{server.port}"
    server.close()
    broker.close()


def test_replay_then_serve(tmp_path, capsys, live_broker):
    flows = tmp_path / "f.csv"
    run(["gen", "--devices", "4", "--duration", "2", "--out", str(flows)],
        capsys)
    model = tmp_path / "m.json"
    run(["train", "--model", "decision_tree", "--data", str(flows),
         "--out", str(model)], capsys)

    code, out, _ = run(["replay", "--broker", live_broker,
                        "--data", str(flows)], capsys)
    assert code == EXIT_OK
    produced = json.loads(out)["produced"]
    assert produced > 0

    verdicts = tmp_path / "v.jsonl"
    code, _, err = run(["serve", "--broker", live_broker,
                        "--model", str(model),
                        "--sink-path", str(verdicts),
                        "--batch-interval-ms", "100",
                        "--idle-limit", "3"], capsys)
    assert code == EXIT_OK
    with open(verdicts) as fh:
        assert sum(1 for _ in fh) == produced
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["verdicts"] == produced


def test_retrain_bumps_version(tmp_path, capsys, live_broker):
    flows = tmp_path / "f.csv"
    run(["gen", "--devices", "4", "--duration", "2", "--out", str(flows)],
        capsys)
    model = tmp_path / "m.json"
    run(["train", "--model", "gaussian_nb", "--data", str(flows),
         "--out", str(model)], capsys)
    run(["replay", "--broker", live_broker, "--data", str(flows)], capsys)
    persist = tmp_path / "persist"
    run(["serve", "--broker", live_broker, "--model", str(model),
         "--sink-path", str(tmp_path / "v.jsonl"),
         "--persist-dir", str(persist),
         "--batch-interval-ms", "100", "--idle-limit", "3"], capsys)

    out_model = tmp_path / "retrained.json"
    code, out, _ = run(["retrain", "--persist-dir", str(persist),
                        "--model", "gaussian_nb", "--out", str(out_model)],
                       capsys)
    assert code == EXIT_OK
    assert json.loads(out)["version"] == 1
    code, out, _ = run(["retrain", "--persist-dir", str(persist),
                        "--model", "gaussian_nb", "--out", str(out_model)],
                       capsys)
    assert json.loads(out)["version"] == 2


def test_bench_inference_cli(tmp_path, capsys):
    code, out, _ = run(["--seed", "3", "bench", "inference",
                        "--kinds", "gaussian_nb",
                        "--features", "full",
                        "--devices", "4", "--duration", "6",
                        "--reps", "3", "--out-dir", str(tmp_path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert os.path.exists(doc["jsonl"])
    assert os.path.exists(doc["csv"])
    assert doc["rows"] == 4  # gnb x {1,1000} + noop x {1,1000}


def test_bench_unknown_experiment_exits_2(capsys):
    code, _, _ = run(["bench", "nonsense"], capsys)
    assert code == EXIT_USAGE


# -- config files go through the flag declarations ----------------------------

def test_readme_config_example_loads(tmp_path, capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "maliot.conf"
    cfg.write_text(block)
    code, out, _ = run(["--config", str(cfg), "gen", "--duration", "1",
                        "--out", "-"], capsys)
    assert code == EXIT_OK
    assert len({r.split(",")[-1] for r in out.splitlines()[1:]}) == 12


SMALL_GEN = ["gen", "--devices", "1", "--duration", "1", "--out", "-"]


@pytest.mark.parametrize("line, argv", [
    ("gen.devics = 12", SMALL_GEN),
    ("serve.devices = 3", ["serve", "--broker", "127.0.0.1:1",
                           "--model", "missing.json"]),
    ("nosuch.seed = 3", SMALL_GEN),
    ("config = other.cfg", SMALL_GEN),
    ("replay.data = flows.csv", ["replay", "--data", "missing.csv"]),
    ("create-topic = flows", ["broker", "--data-dir", "d", "--port", "-1"]),
    ("bench.experiment = accuracy", ["bench", "accuracy", "--devices", "1",
                                     "--duration", "1", "--kinds",
                                     "decision_tree", "--out-dir", "unused"]),
])
def test_config_key_naming_no_settable_option_exits_2(tmp_path, capsys, line, argv):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run(["--config", str(cfg)] + argv, capsys)
    assert code == EXIT_USAGE
    assert line.partition(" ")[0] in err


def test_bare_key_another_command_takes_is_ignored(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("devices = 3\n")
    code, _, _ = run(["--config", str(cfg), "serve", "--broker", _unused_addr(),
                      "--model", str(tmp_path / "missing.json")], capsys)
    assert code == EXIT_IO  # got past the config, failed on the model file


@pytest.mark.parametrize("line, argv", [
    ("replay.dialect = zeek", ["replay", "--data", "missing.csv"]),
    ("log-level = loud", SMALL_GEN),
    ("bench.kinds = cnn", ["bench", "accuracy", "--devices", "1",
                           "--duration", "1"]),
])
def test_config_value_gets_its_flags_checks(tmp_path, capsys, line, argv):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run(["--config", str(cfg)] + argv, capsys)
    assert code == EXIT_USAGE
    assert line.partition(" ")[0] in err


def test_config_file_spellings_keep_their_effect(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("gen.cnc-fixed-size = yes\nfeatures = de_identified\n"
                   "devices = 3\nduration = 1\n")
    code, from_file, _ = run(["--config", str(cfg), "gen", "--out", "-"], capsys)
    assert code == EXIT_OK
    code, from_flags, _ = run(["gen", "--devices", "3", "--duration", "1",
                               "--cnc-fixed-size", "--out", "-"], capsys)
    assert from_file == from_flags
    flows = tmp_path / "f.csv"
    flows.write_text(from_file)
    code, out, _ = run(["--config", str(cfg), "train", "--model", "gaussian_nb",
                        "--data", str(flows), "--out", str(tmp_path / "m.json")],
                       capsys)
    assert code == EXIT_OK
    assert json.loads(out)["feature_set"] == "de_identified"


def test_flag_beats_command_key_beats_bare_key(tmp_path, capsys):
    from maliot.sim import SimConfig, generate

    cfg = tmp_path / "m.cfg"
    cfg.write_text("duration = 1\ngen.duration = 2\ndevices = 2\n")
    for extra, seconds in (([], 2.0), (["--duration", "3"], 3.0)):
        code, out, _ = run(["--config", str(cfg), "gen", "--out", "-"] + extra,
                           capsys)
        assert code == EXIT_OK
        rows = len(out.splitlines()) - 1
        assert rows == len(generate(SimConfig(n_devices=2, duration_s=seconds)))


def test_bench_scalability_reads_the_corpus_flags(tmp_path, capsys):
    from maliot.sim import SimConfig, generate

    code, out, _ = run(["bench", "scalability", "--kinds", "decision_tree",
                        "--features", "full", "--devices", "1",
                        "--duration", "1", "--rate", "5",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == EXIT_OK
    with open(json.loads(out)["jsonl"], encoding="utf-8") as fh:
        (row,) = [json.loads(line) for line in fh]
    slow = len(generate(SimConfig(n_devices=1, duration_s=1.0,
                                  rate_flows_per_s=5.0)))
    assert row["produced"] == slow
    assert slow <= len(generate(SimConfig(n_devices=1, duration_s=1.0))) / 5


@pytest.mark.parametrize("argv", [
    ["bench", "scalability", "--kinds", "decision_tree", "--devices", "x"],
    ["bench", "scalability", "--kinds", "decision_tree", "--devices", "9:1"],
    ["bench", "accuracy", "--devices", "1", "--duration", "1", "--kinds", "cnn"],
    ["broker", "--create-topic", "flows:x"],
])
def test_malformed_list_flags_exit_2(tmp_path, capsys, argv):
    code, _, _ = run(argv + ["--out-dir" if argv[0] == "bench" else "--data-dir",
                             str(tmp_path / "out")], capsys)
    assert code == EXIT_USAGE


def test_the_cli_broker_starts_without_the_inference_stack(tmp_path):
    code = f"""
import os, signal, sys, threading
from maliot import cli
from maliot.broker import server
parser = cli.build_parser()
args = parser.parse_args(["broker", "--data-dir", {str(tmp_path / "b")!r}, "--port", "0",
                          "--create-topic", "flows:3"])
started = threading.Event()
real_start = server.BrokerServer.start
def start(self):
    real_start(self)
    started.set()
server.BrokerServer.start = start
def stop():
    started.wait(10)
    os.kill(os.getpid(), signal.SIGTERM)
threading.Thread(target=stop, daemon=True).start()
assert args.handler(args) == 0
loaded = sorted(m for m in sys.modules
                if m == "numpy" or m.startswith(("numpy.", "maliot.models", "maliot.engine",
                                                 "maliot.bench", "maliot.features")))
print(loaded)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
