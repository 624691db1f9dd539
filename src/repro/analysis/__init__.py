"""Analysis utilities: metrics, prediction errors, sweeps and rendering."""
