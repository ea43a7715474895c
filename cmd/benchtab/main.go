// Command benchtab regenerates the paper's evaluation tables and figures on
// the synthetic dataset analogs.
//
// Usage:
//
//	benchtab -exp all            # every experiment, quick grids
//	benchtab -exp fig6 -full     # one experiment, the paper's full grids
//	benchtab -list               # what is available
//
// EGOBW_SCALE=2 benchtab ... doubles every dataset's vertex count.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, table2, fig6..fig12, table3, table4, all)")
	full := flag.Bool("full", false, "use the paper's full parameter grids (slower)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.What)
		}
		return
	}
	cfg := bench.Quick(os.Stdout)
	if *full {
		cfg = bench.Full(os.Stdout)
	}
	if err := bench.Run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
