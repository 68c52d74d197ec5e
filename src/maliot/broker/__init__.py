"""Partitioned at-least-once broker: core, TCP server, and clients."""

from .client import InProcClient, TcpClient
from .core import Broker, BrokerConfig, Fetched, Run, partition_for_key
from .server import BrokerServer

__all__ = [
    "Broker",
    "BrokerConfig",
    "BrokerServer",
    "Fetched",
    "InProcClient",
    "TcpClient",
    "Run",
    "partition_for_key",
]
