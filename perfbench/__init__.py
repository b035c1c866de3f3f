"""The repository's benchmark: workloads, metrics and layer tracing."""
