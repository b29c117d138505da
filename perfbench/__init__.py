"""Pipeline benchmark for arrinv: verified `analyze` calls on seeded corpora."""
