"""Paper-scale benchmark of the ZnG simulator (see README.md)."""
