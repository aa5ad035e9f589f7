// Command perfbench is the repository's benchmark. It runs one named
// workload against the program's public entry points, checks the
// program's outputs, and prints every metric BENCHMARK.json names, with
// its unit. The last line of standard output is the result as JSON:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with no
// instrumentation. With --trace 1 the workload runs once more with the
// tracing wrappers attached and the metrics are the per-layer set.
// --workload all runs every workload, untraced and traced.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it; see perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"slices"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is what one workload run reports.
type result struct {
	attempted, failed int64
	e2e, layers       metricSet
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
}

func newResult() *result { return &result{e2e: metricSet{}, layers: metricSet{}} }

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runConfig is what a workload gets from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// workload is one named benchmark input set.
type benchWorkload struct {
	name string
	run  func(runConfig) (*result, error)
}

var workloads = []benchWorkload{
	{"sim-steady", runSimSteady},
	{"sim-churn", runSimChurn},
	{"sched-100k", runSched100k},
	{"gw-open", runGwOpen},
}

// spec is the part of BENCHMARK.json the program checks its output
// against: every metric it prints must be listed there with that unit.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// conform checks got against the spec's metric list: every listed
// metric present with its unit (a per-layer metric a workload bypasses
// is reported as 0), no unlisted metric, every value finite.
func conform(got metricSet, want []specMetric, fillZero bool) (metricSet, error) {
	out := metricSet{}
	var errs []error
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok && fillZero:
			m = metric{Value: 0, Unit: w.Unit}
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not measured", w.Name))
			continue
		case m.Unit != w.Unit:
			errs = append(errs, fmt.Errorf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			errs = append(errs, fmt.Errorf("metric %s: value %v", w.Name, m.Value))
		}
		out[w.Name] = m
	}
	for name := range got {
		if !slices.ContainsFunc(want, func(w specMetric) bool { return w.Name == name }) {
			errs = append(errs, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name))
		}
	}
	return out, errors.Join(errs...)
}

// host is the fingerprint every result records.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// output is the final JSON line.
type output struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+" or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics; 0 prints the end-to-end metrics")
	commit := flag.String("commit", "unknown", "commit the program was built from, recorded with the result")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func run(name string, seed int64, seconds float64, trace int, commit string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var selected []benchWorkload
	for _, w := range workloads {
		if name == "all" || w.name == name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q (want %s or all)", name, workloadNames())
	}
	h := host{CPU: cpuModel(), NProc: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Go: goruntime.Version(), Commit: commit, Seed: seed, Seconds: seconds, Trace: trace}

	final := output{Correct: true, Metrics: metricSet{}}
	for _, w := range selected {
		h.Workload = w.name
		hj, _ := json.Marshal(h) // strings and numbers: cannot fail
		fmt.Printf("host %s\n", hj)
		// --workload all reports both sets of every workload.
		traced := trace == 1 || name == "all"
		res, err := w.run(runConfig{seed: seed, seconds: seconds, traced: traced})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var sets []metricSet
		if trace == 0 || name == "all" {
			e2e, err := conform(res.e2e, sp.EndToEnd, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			sets = append(sets, e2e)
		}
		if traced {
			layers, err := conform(res.layers, sp.PerLayer, true)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			sets = append(sets, layers)
		}
		for _, p := range res.problems {
			fmt.Printf("CHECK FAILED %s: %s\n", w.name, p)
		}
		final.Correct = final.Correct && len(res.problems) == 0
		final.Attempted += res.attempted
		final.Failed += res.failed
		fmt.Printf("%s: attempted=%d failed=%d checks=%s\n", w.name, res.attempted, res.failed, passFail(len(res.problems) == 0))
		for _, set := range sets {
			for _, k := range sortedKeys(set) {
				m := set[k]
				fmt.Printf("  %-34s %14.6g %s\n", k, m.Value, m.Unit)
				key := k
				if name == "all" {
					key = w.name + "/" + k
				}
				final.Metrics[key] = m
			}
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !final.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

func sortedKeys(m metricSet) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
