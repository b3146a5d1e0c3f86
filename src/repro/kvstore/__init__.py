"""Log-structured key-value store: the paper's value-log use case."""

from repro.kvstore.kv import KVError, LogStructuredKVStore, check_value

__all__ = ["KVError", "LogStructuredKVStore", "check_value"]
