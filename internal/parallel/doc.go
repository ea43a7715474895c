// Package parallel implements Section V of the paper — parallel computation
// of all vertices' ego-betweennesses — as one ego.Sweep of the per-ego
// kernel. VertexPEBW hands workers whole egos, so on power-law graphs a hub
// ego caps the balance (the paper's load-imbalance problem); EdgePEBW cuts
// every ego heavier than an even share into chunks of its edges. Per-worker
// work, in kernel steps, quantifies the difference independently of how
// many CPUs the host has (see DESIGN.md §5).
package parallel
