// Command nocbench is gonoc's end-to-end benchmark. It drives the
// simulator through its public packages on one of four workloads, checks
// the simulated outputs, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// probes attached. With -trace 1 the benchmark also runs the job with
// per-cycle phase probes and per-layer counters, and the metrics are the
// per-layer ones plus the tracing overhead. See README.md for why each
// workload exists and what each metric means.
//
// Usage:
//
//	nocbench --workload fig7-splash2 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// workers is the thread budget: sweep fan-out and Network.Workers
	// never exceed it.
	workers int
}

// workload is one benchmark input set.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig, r *report) error
}

var benchWorkloads = []workload{
	{"fig7-splash2", "the paper's Figure 7 study: low-load coherence traffic, per-app sweep fan-out, FT mechanisms under injected faults", runFig7},
	{"uniform-32x32", "loaded fault-free 32x32 mesh: per-flit pipeline cost, injection pre-phase and the parallel step dominate", runUniform},
	{"check-2x2", "exhaustive 2x2 model check: Snapshot/Restore/StateHash on a tiny network instead of long Step runs", runCheck},
	{"linkfault-obs-16x16", "dead links with NI retransmission and the full obs tier: fault-aware tables, serial link commit, retxScan, obs", runLinkfaultObs},
}

type metric struct {
	name  string
	value float64
	unit  string
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

type count struct {
	name  string
	value uint64
}

// report collects one run's output. Workloads append to it; main prints
// it.
type report struct {
	checks []checkResult
	work   []count
	e2e    []metric
	layers []metric
	notes  []string
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{name, ok, fmt.Sprintf(format, args...)})
}

func (r *report) count(name string, v uint64) { r.work = append(r.work, count{name, v}) }

func (r *report) metric(name string, v float64, unit string) {
	r.e2e = append(r.e2e, metric{name, v, unit})
}

func (r *report) layer(name string, v float64, unit string) {
	r.layers = append(r.layers, metric{name, v, unit})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "target measured host time per run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "nocbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.GOMAXPROCS(0)}
	fmt.Printf("# workload %s seed %d seconds %g trace %d\n", w.name, cfg.seed, cfg.seconds, *trace)
	fmt.Printf("# why: %s\n", w.why)
	fmt.Printf("# go %s %s/%s gomaxprocs %d cpus %d workers %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.workers)

	var r report
	if err := w.run(cfg, &r); err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	os.Exit(r.print(cfg))
}

func workloadNames() string {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// print writes the human-readable lines and the final JSON result, and
// returns the exit code.
func (r *report) print(cfg runConfig) int {
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, c := range r.work {
		fmt.Printf("work   %-34s %d\n", c.name, c.value)
	}
	failed := 0
	for _, c := range r.checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("check  %-34s %s  %s\n", c.name, verdict, c.detail)
	}
	attempted := len(r.checks)
	errorRate := float64(failed) / float64(max(attempted, 1))
	for _, m := range r.e2e {
		fmt.Printf("metric %-34s %.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("metric %-34s %.6g %s\n", "error_rate", errorRate, "ratio")
	for _, m := range r.layers {
		fmt.Printf("layer  %-34s %.6g %s\n", m.name, m.value, m.unit)
	}

	reported := r.e2e
	if cfg.trace {
		reported = r.layers
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, m := range reported {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "nocbench: metric %s is %v\n", m.name, v)
			return 1
		}
		metrics[m.name] = jsonMetric{v, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
