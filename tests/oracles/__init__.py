"""Reference implementations the differential suites compare ``src/`` against."""
