"""Dataset generators: running example, DBLP, Twitter, TPC-H, crime.

All generators are deterministic (seeded) and take a row-count scale knob in
place of the paper's 100–500 GB inputs; docs/BENCHMARKS.md (its opening
section) states the substitution.
"""

from repro.datasets.people import person_database, person_query

__all__ = ["person_database", "person_query"]
