"""The repo's benchmark: calibrated end-to-end metrics and a per-layer ledger
on the `grid2d` / `cube3d` / `lp_normal` workloads. See ``bench/README.md``."""
