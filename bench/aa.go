package main

import (
	"fmt"
	"io"
	"os"
)

// runAA is the A/A check: two sets of n bare runs of every workload on this
// same code, the sets interleaved and the workload order alternating, each
// run with another seed. It prints every gated metric's median, quartiles and
// sample count per set, and fails when the second set's median is worse than
// the first's by more than the metric's bound. The spread it prints
// (inter-quartile range over median, from the quartiles the driver computes)
// is marked when it exceeds the bound; with fewer than ten runs a set's
// quartiles are close to its extremes, so the mark alone does not fail.
func runAA(out io.Writer, opt options, n int) int {
	type key struct {
		workload, metric string
		set              int
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 runs per set (quartiles)")
		return 2
	}
	samples := map[key][]float64{}
	opt.trace = false
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for j := range workloadNames {
				w := workloadNames[j]
				if (i+set)%2 == 1 {
					w = workloadNames[len(workloadNames)-1-j]
				}
				opt.workload, opt.seed = w, int64(1+2*i+set)
				res, err := runWorkload(io.Discard, opt)
				if err != nil || res.failed > 0 {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d failed operations, error %v\n", w, opt.seed, res.failed, err)
					return 1
				}
				for _, d := range endToEnd {
					k := key{w, d.name, set}
					samples[k] = append(samples[k], res.led[d.name].value)
				}
				fmt.Fprintf(out, "set %c run %d %-15s seed %d done\n", 'A'+set, i+1, w, opt.seed)
			}
		}
	}
	code := 0
	fmt.Fprintf(out, "%-15s %-20s %3s %12s %12s %12s %8s %12s %12s %12s %8s %8s %6s\n",
		"workload", "metric", "n", "A q1", "A median", "A q3", "A iqr", "B q1", "B median", "B q3", "B iqr", "B vs A", "bound")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			a, b := samples[key{w, d.name, 0}], samples[key{w, d.name, 1}]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worse := (b2 - a2) / a2 // positive: B is worse
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if d.name != "setup_s" && ((a3-a1)/a2 > d.bound || (b3-b1)/b2 > d.bound) {
				verdict = " (spread over bound)"
			}
			if worse > d.bound {
				verdict += " SETS DISAGREE"
				code = 1
			}
			fmt.Fprintf(out, "%-15s %-20s %3d %12.6g %12.6g %12.6g %7.2f%% %12.6g %12.6g %12.6g %7.2f%% %+7.2f%% %5.0f%%%s\n",
				w, d.name, n, a1, a2, a3, 100*(a3-a1)/a2, b1, b2, b3, 100*(b3-b1)/b2, 100*worse, 100*d.bound, verdict)
		}
	}
	return code
}
