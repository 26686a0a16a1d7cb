// Command vadabench regenerates the paper's evaluation tables (Sec. 6):
// one table per figure, printed in aligned text. The -scale flag shrinks
// the paper's instance sizes (1.0 = paper scale; the default 0.02 runs
// the whole suite in minutes on a laptop while preserving the shapes).
//
// Usage:
//
//	vadabench [-scale 0.02] [-only Fig5a,Fig7]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 0.02, "fraction of the paper's instance sizes")
	only := flag.String("only", "", "comma-separated figure IDs (default: all)")
	flag.Parse()

	known := map[string]bool{}
	var ids []string
	for _, f := range experiments.Figures {
		known[f.ID] = true
		ids = append(ids, f.ID)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fmt.Fprintf(os.Stderr, "vadabench: unknown figure %q (known: %s)\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	for _, f := range experiments.Figures {
		if len(want) > 0 && !want[f.ID] {
			continue
		}
		tb, err := f.Run(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vadabench: %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		fmt.Println(tb)
	}
}
