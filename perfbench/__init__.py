"""KG-engine benchmark: seeded workloads, oracle checks, per-layer spans."""
