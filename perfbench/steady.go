package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchSpec() (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// runSteady runs every workload runs times, untraced, each in a fresh
// process with seed base+i, alternating the workload order between
// passes. Per workload and metric it prints the median, the quartiles,
// their spread as a share of the median, and the gap between the medians
// of the even and the odd passes, against the metric's bound.
func runSteady(runs int, base int64, seconds float64) int {
	spec, err := readBenchSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json (run from the repository root):", err)
		return 2
	}
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	vals := map[string]map[string][]float64{}
	shares := map[string][]float64{}
	ok := true
	for i := 0; i < runs; i++ {
		order := make([]workload, len(workloads))
		copy(order, workloads)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, w := range order {
			rep, err := runChild(w.name, base+int64(i), seconds, false)
			if err != nil || !rep.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s pass %d failed: %v\n", w.name, i, err)
				ok = false
				continue
			}
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for k, m := range rep.Metrics {
				vals[w.name][k] = append(vals[w.name][k], m.Value)
			}
			shares[w.name] = append(shares[w.name], float64(rep.Failed)/float64(rep.Attempted))
		}
	}
	fmt.Printf("steadiness: %d passes of %.0f s per workload, seeds %d..%d\n", runs, seconds, base, base+int64(runs)-1)
	for _, w := range workloads {
		fmt.Printf("== %s (failed share per run: %v)\n", w.name, shares[w.name])
		fmt.Printf("   %-16s %12s %12s %12s %8s %8s %8s  %s\n", "metric", "median", "q1", "q3", "iqr%", "halves%", "bound%", "verdict")
		for _, m := range e2eMetrics {
			v := vals[w.name][m.name]
			if len(v) == 0 {
				continue
			}
			q1, med, q3 := quartiles(v)
			var even, odd []float64
			for i, x := range v {
				if i%2 == 0 {
					even = append(even, x)
				} else {
					odd = append(odd, x)
				}
			}
			iqr := (q3 - q1) / med * 100
			gap := math.Abs(median(even)-median(odd)) / math.Min(median(even), median(odd)) * 100
			b := bound[m.name] * 100
			verdict := "steady"
			switch {
			case m.name == "setup_s" && gap > b:
				verdict = "HALVES APART"
			case m.name == "setup_s":
			case iqr > b:
				verdict = "SPREAD > BOUND"
			case iqr > b/3 || gap > b:
				verdict = "marginal"
			}
			fmt.Printf("   %-16s %12.4f %12.4f %12.4f %8.2f %8.2f %8.1f  %s\n", m.name, med, q1, q3, iqr, gap, b, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
