from typing import NamedTuple

import numpy as np
import pytest

from maliot import sim
from maliot.flows import FlowRecord


def make_record(**overrides) -> FlowRecord:
    """A fully populated benign flow; override any field."""
    base = dict(
        ts=1600000000.25,
        src_ip="10.0.0.10", src_port=49152,
        dst_ip="93.184.216.34", dst_port=443,
        proto="tcp", service="ssl",
        duration=1.5, orig_bytes=512, resp_bytes=2048,
        conn_state="SF", missed_bytes=0,
        orig_pkts=10, orig_ip_bytes=900, resp_pkts=12, resp_ip_bytes=2500,
        label="benign", device_id="dev-0",
    )
    base.update(overrides)
    return FlowRecord(**base)


class Row(NamedTuple):
    partition: int
    offset: int
    key: str
    value: str


def rows(runs) -> list[Row]:
    """A poll's or fetch's runs as one (partition, offset, key, value) per
    row, in the order the runs hold them."""
    return [Row(run.partition, run.offset + i, key, value)
            for run in runs
            for i, (key, value) in enumerate(zip(run.keys, run.values))]


@pytest.fixture(scope="session")
def small_corpus():
    """A few thousand mixed flows; shared read-only across tests."""
    return sim.generate(sim.SimConfig(n_devices=6, duration_s=8.0, seed=11))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
