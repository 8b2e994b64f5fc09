"""bibkit: deterministic resolution, verification, and reconciliation of
bibliographic records."""
