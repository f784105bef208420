package main

import (
	"fmt"
	"io"
)

// repeatSuite runs the timed suite o.repeat times, run i with seed
// o.seed+i as the acceptance procedure does, and prints each end-to-end
// metric's median, quartiles and spread (interquartile range over the
// median) per workload next to its bound. It fails when a spread exceeds
// its bound; setup_s is reported but, as in the acceptance rule, only
// its median is held to the bound.
func repeatSuite(w io.Writer, specs []workloadSpec, sc scale, o options) error {
	values := make(map[string]map[string][]float64) // workload -> metric -> one value per run
	for _, spec := range specs {
		values[spec.name] = make(map[string][]float64)
	}
	for i := 0; i < o.repeat; i++ {
		ro := o
		ro.seed = o.seed + int64(i)
		for _, spec := range specs {
			res, err := runTimed(spec, sc, ro)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", spec.name, ro.seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s (seed %d): %d of %d operations failed or were wrong", spec.name, ro.seed, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[spec.name][name] = append(values[spec.name][name], m.Value)
			}
		}
	}
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	over := 0
	for _, spec := range specs {
		for _, d := range endToEnd {
			sp := quartiles(values[spec.name][d.name])
			verdict := ""
			if sp.share > d.bound && d.name != "setup_s" {
				verdict = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-14s %-22s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				spec.name, d.name, sp.median, sp.q1, sp.q3, 100*sp.share, 100*d.bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric spread(s) exceed their bound over %d runs", over, o.repeat)
	}
	return nil
}
