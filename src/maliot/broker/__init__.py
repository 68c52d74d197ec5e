"""Partitioned at-least-once broker: core, TCP server, and clients."""

from .client import InProcClient, TcpClient
from .core import Broker, BrokerConfig, Run, partition_for_key
from .server import BrokerServer

__all__ = [
    "Broker",
    "BrokerConfig",
    "BrokerServer",
    "InProcClient",
    "TcpClient",
    "Run",
    "partition_for_key",
]
