"""End-to-end benchmark for the paper's path (see bench/README.md)."""
