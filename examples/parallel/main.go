// Parallel all-vertices computation: the paper's Section V algorithms.
//
// Computes every vertex's ego-betweenness with VertexPEBW and EdgePEBW
// across thread counts, reporting wall-clock time and the
// machine-independent balance bound that explains why edge partitioning
// scales better on skewed graphs (the paper's Fig. 10).
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"runtime"
	"time"

	egobw "repro"
)

func main() {
	// Skewed graph: a hub's ego is the heaviest unit of vertex partitioning.
	g := egobw.GenerateChungLu(5000, 1.9, 10, 2000, 5)
	fmt.Printf("graph: %v  (host has %d CPUs)\n", egobw.Stats(g), runtime.NumCPU())

	want, one := egobw.ComputeAllParallel(g, 1, egobw.VertexPEBW)
	fmt.Printf("one-worker sweep: %v\n\n", one.Elapsed.Round(time.Millisecond))

	fmt.Printf("%-12s %8s %10s %14s\n", "strategy", "threads", "time", "balance-bound")
	for _, strat := range []egobw.Strategy{egobw.VertexPEBW, egobw.EdgePEBW} {
		for _, t := range []int{1, 4, 16} {
			got, st := egobw.ComputeAllParallel(g, t, strat)
			for v := range want {
				if got[v] != want[v] {
					panic("parallel result differs from the one-worker sweep")
				}
			}
			fmt.Printf("%-12v %8d %10v %13.2fx\n",
				strat, t, st.Elapsed.Round(time.Millisecond), st.SpeedupBound(t))
		}
	}
	fmt.Println("\nThe balance bound is the speedup the partition allows on t real")
	fmt.Println("CPUs: VertexPEBW is capped by its heaviest hub ego, EdgePEBW splits it.")
}
