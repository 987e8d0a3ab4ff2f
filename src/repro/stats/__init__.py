"""Statistics: execution-time breakdown, MSHR occupancy, sharing analysis."""
