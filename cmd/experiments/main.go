// Command experiments runs the full reproduction harness: every experiment
// experiments.All lists (one per paper figure plus one per quantified
// challenge claim) and prints its table. The harness is deterministic, so
// its output is the record of a run; none is committed.
//
// Usage:
//
//	experiments            # run everything
//	experiments E5 E9      # run selected experiments
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var selected []experiments.Experiment
	if len(args) == 0 {
		selected = experiments.All()
	} else {
		for _, id := range args {
			exp, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: E1..E%d\n", id, len(experiments.All()))
				return 2
			}
			selected = append(selected, exp)
		}
	}
	failed := 0
	for _, exp := range selected {
		fmt.Printf("### %s: %s\n\n", exp.ID, exp.Title)
		table, err := exp.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", exp.ID, err)
			failed++
			continue
		}
		fmt.Println(table.String())
	}
	if failed > 0 {
		return 1
	}
	return 0
}
