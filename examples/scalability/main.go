// Scalability: regenerate Figure 3 of the paper from the solved
// queueing model and check the §4 claims. Prints the three curves
// (IDEAL, TCMP, PARALLEL SYSPLEX) plus a crude terminal plot, and exits
// non-zero when a claim misses the paper's bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sysplex/internal/scalemodel"
)

func main() {
	systems := flag.Int("systems", 16, "sysplex members to sweep")
	flag.Parse()

	params := scalemodel.DefaultParams()

	points := scalemodel.Figure3(*systems, params)
	fmt.Println("Figure 3 — effective capacity vs physical capacity (single-engine units)")
	fmt.Printf("%6s %8s %8s %8s\n", "CPUs", "IDEAL", "TCMP", "SYSPLEX")
	for _, pt := range points {
		fmt.Printf("%6d %8.2f %8.2f %8.2f\n", pt.CPUs, pt.Ideal, pt.TCMP, pt.Sysplex)
	}

	// Terminal plot: one row per configuration, sysplex (#) vs TCMP (t).
	fmt.Println("\n  capacity → (each column ≈ 0.5 engines; '#'=sysplex, 't'=TCMP, '|'=ideal)")
	for _, pt := range points {
		width := func(v float64) int { return int(v*2 + 0.5) }
		row := make([]byte, width(pt.Ideal)+1)
		for i := range row {
			row[i] = ' '
		}
		for i := 0; i < width(pt.TCMP) && i < len(row); i++ {
			row[i] = 't'
		}
		for i := 0; i < width(pt.Sysplex) && i < len(row); i++ {
			if row[i] == 't' {
				row[i] = '*' // both
			} else {
				row[i] = '#'
			}
		}
		row[len(row)-1] = '|'
		fmt.Printf("%3d %s\n", pt.CPUs, strings.TrimRight(string(row), " "))
	}

	claims := scalemodel.Claims(params)
	fmt.Println("\n§4 claims, paper vs model:")
	fmt.Printf("  initial data-sharing cost (1→2 systems):  paper <18%%   model %.1f%%\n", 100*claims.DataSharingCost)
	fmt.Printf("  incremental cost per added system:        paper <0.5%%  model %.2f%% (worst)\n", 100*claims.MaxIncrementalCost)
	fmt.Printf("  32-system effective capacity:             near-linear  model %.1f%% of ideal\n", 100*claims.Effective32)
	if claims.DataSharingCost >= 0.18 || claims.MaxIncrementalCost >= 0.005 || claims.Effective32 < 0.8 {
		fmt.Println("FAIL: a §4 claim misses the paper's bound")
		os.Exit(1)
	}
}
