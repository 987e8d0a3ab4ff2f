"""Processor models: branch prediction, consistency implementations,
store buffer, and the unified in-order / out-of-order core."""
