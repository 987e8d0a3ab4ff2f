"""Multiprocessor system: processes, OS scheduler model, and the machine."""
