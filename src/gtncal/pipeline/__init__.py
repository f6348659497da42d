"""End-to-end pipeline stages and artifact management."""
