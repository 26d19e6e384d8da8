"""End-to-end benchmark of the TD-AM serving stack (see README.md)."""
