// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four workloads per process against the asyncft protocol stack,
// measures it from outside (timing calls into each layer's public API and
// reading the program's own internal/obs counters and acs slot spans),
// checks the program's outputs with checks of its own, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Modes:
//
//	--workload W --seed S --seconds T --trace 0   end-to-end metrics of W
//	--workload W --seed S --seconds T --trace 1   per-layer metrics of W: an
//	                                              untraced run in a child
//	                                              process, then a traced run
//	--workload all ...                            every workload, one child
//	                                              process each
//	--steady N --seconds T                        N interleaved runs of every
//	                                              workload, spread vs bounds
//	--selftest                                    corrupted-output checks and
//	                                              a traced smoke run
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetrics lists the end-to-end metrics every workload reports, in
// print order, with their units (BENCHMARK.json holds the same list).
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput", "ops/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"msgs_per_op", "count"},
	{"wire_kb_per_op", "KB"},
	{"live_heap_mb", "MB"},
}

// higherIsBetter names the end-to-end metrics where a larger value is an
// improvement; every other one is better lower.
var higherIsBetter = map[string]bool{"throughput": true}

// runConfig is what one workload run receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// tailPct is the fixed percentile reported as tail_ms.
	tailPct float64
	run     func(rc runConfig) *outcome
}

var workloads = []workload{
	{name: "serve", tailPct: 99, run: func(rc runConfig) *outcome { return runServe(rc, specServe) }},
	{name: "serve-crash", tailPct: 99, run: func(rc runConfig) *outcome { return runServe(rc, specServeCrash) }},
	{name: "ledger-n16", tailPct: 99, run: runLedger},
	{name: "fba", tailPct: 95, run: runFBA},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "serve | serve-crash | ledger-n16 | fba | all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = print per-layer metrics from a traced run")
	steady := flag.Int("steady", 0, "steadiness mode: interleaved runs per workload")
	selftest := flag.Bool("selftest", false, "feed the output checks corrupted results and smoke-test the traced run")
	flag.Parse()

	// GOMAXPROCS never exceeds the CPUs this process may run on.
	if p, c := goruntime.GOMAXPROCS(0), goruntime.NumCPU(); p > c {
		goruntime.GOMAXPROCS(c)
	}

	switch {
	case *selftest:
		os.Exit(runSelfTest())
	case *steady > 0:
		os.Exit(runSteady(*steady, *seed, *seconds))
	case *name == "all":
		os.Exit(runAll(*seed, *seconds, *traceFlag == 1))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want serve, serve-crash, ledger-n16, fba or all)\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds}
	warmCPU(2 * time.Second)
	var rep report
	if *traceFlag == 1 {
		rep = runTraced(w, rc)
	} else {
		o := w.run(rc)
		rep = o.endToEnd(w)
		printTable(os.Stdout, w.name, rep, o)
	}
	emit(rep)
}

// emit prints the result line and exits non-zero when a check failed.
func emit(rep report) {
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printTable prints a human-readable view of a report.
func printTable(w io.Writer, name string, rep report, o *outcome) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, correct %v\n", name, rep.Attempted, rep.Failed, rep.Correct)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	order := map[string]int{}
	for i, m := range e2eMetrics {
		order[m.name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		oi, iok := order[keys[i]]
		oj, jok := order[keys[j]]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		m := rep.Metrics[k]
		fmt.Fprintf(w, "   %-28s %14.4f %s\n", k, m.Value, m.Unit)
	}
	if o != nil {
		for _, n := range o.notes {
			fmt.Fprintf(w, "   note: %s\n", n)
		}
		for _, p := range o.problems {
			fmt.Fprintf(w, "   CHECK FAILED: %s\n", p)
		}
	}
}

// runChild runs this binary on one workload in a fresh process and returns
// the report from its last output line. The child's table goes to stderr.
func runChild(name string, seed int64, seconds float64, traced bool) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", tr)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, os.Stderr)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	rep, perr := lastReport(out.Bytes())
	if perr != nil {
		if runErr != nil {
			return report{}, fmt.Errorf("%s: %v", name, runErr)
		}
		return report{}, fmt.Errorf("%s: %v", name, perr)
	}
	return rep, nil
}

// lastReport parses the JSON result line at the end of a run's output.
func lastReport(out []byte) (report, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return report{}, fmt.Errorf("no result line: %v", err)
	}
	return rep, nil
}

// runAll runs every workload, each in its own process, and prints one
// combined result line whose metric names carry the workload as prefix.
func runAll(seed int64, seconds float64, traced bool) int {
	all := report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		rep, err := runChild(w.name, seed, seconds, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			all.Correct = false
			continue
		}
		printTable(os.Stdout, w.name, rep, nil)
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for k, m := range rep.Metrics {
			all.Metrics[w.name+"."+k] = m
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// warmCPU keeps every CPU busy for d before a workload starts: on a
// shared virtual machine the first second of load after an idle spell runs
// markedly slower, which showed as set-up times that depended on what the
// previous process had done.
func warmCPU(d time.Duration) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < goruntime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(0)
			for time.Now().Before(end) {
				for j := 0; j < 1000; j++ {
					x = splitmix64(x)
				}
			}
			warmSink.Add(x)
		}()
	}
	wg.Wait()
}

var warmSink atomic.Uint64

// outDir is where traces are written: next to the benchmark binary, which
// run.sh builds into the checkout's build directory.
func outDir() string {
	exe, err := os.Executable()
	if err != nil {
		return "."
	}
	return filepath.Join(filepath.Dir(exe), "traces")
}
