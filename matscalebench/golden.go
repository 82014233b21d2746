package main

import (
	"fmt"
	"os"
	"path/filepath"

	"matscale"
)

// goldenMain rewrites golden/<workload>.csv for both sweep workloads
// from a fresh Sweep at seed 1. Run it from the repository root, and
// only when a change is meant to alter simulated results.
func goldenMain() int {
	for _, w := range []string{wlManyrank, wlLargeblock} {
		res, err := matscale.Sweep(specFor(w, 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "matscalebench golden:", err)
			return 1
		}
		path := filepath.Join("matscalebench", "golden", w+".csv")
		if err := os.WriteFile(path, sweepCSV(res), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "matscalebench golden:", err)
			return 1
		}
		fmt.Println("wrote", path)
	}
	return 0
}
