"""Memory-system substrate: caches, MSHRs, TLBs, directory coherence,
mesh interconnect, and the per-node memory hierarchy composition."""
