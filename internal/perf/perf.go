// Package perf measures step-loop throughput across mesh sizes, worker
// counts and topology families, and records the results as a JSON
// snapshot (BENCH_scaling.json at the repository root) that CI compares
// fresh measurements against.
//
// The package is deliberately outside the deterministic simulation
// core: wall-clock timing and runtime memory statistics are allowed
// here, while the determinism linter (cmd/nocvet) bans them inside the
// simulation packages. Nothing in this package feeds back into a
// simulation — it only observes how fast one runs.
//
// Each measured point reports two windows:
//
//   - Throughput: steps per second with live traffic, the realistic
//     simulation workload (injection, traversal and ejection all
//     active).
//   - Allocation: after the traffic horizon, once the injection side is
//     idle (Network.InjectionIdle), allocations per Step. The zero-alloc
//     hot-path contract says this is exactly 0; the snapshot comparison
//     and TestStepZeroAllocSteadyState both enforce it.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/traffic"
)

// Schema identifies the snapshot format. Bump the suffix when the
// structure or the meaning of a field changes; the reader rejects
// snapshots with a different schema so stale files fail loudly.
const Schema = "gonoc-bench-scaling/v2"

// Observability modes a case can measure. Off is the zero-alloc hot
// path; ObsOn adds the counter registry, stall attribution and the
// windowed utilization ring; ObsFlight additionally arms the flight
// recorder, so every trace-emitting site also stores into its ring.
const (
	ObsOff    = ""
	ObsOn     = "obs"
	ObsFlight = "flight"
)

// Case is one measurement configuration.
type Case struct {
	Topo          string  `json:"topo"` // "" means mesh
	Width         int     `json:"width"`
	Height        int     `json:"height"`
	Workers       int     `json:"workers"`
	Rate          float64 `json:"rate"`
	WarmupCycles  int     `json:"warmup_cycles"`
	MeasureCycles int     `json:"measure_cycles"`
	// ObsMode selects the observability configuration: ObsOff, ObsOn or
	// ObsFlight. The steady-state zero-alloc contract holds in every
	// mode — handles are pre-bound and the rings are pre-allocated — so
	// the modes differ in time per step, not allocations.
	ObsMode string `json:"obs_mode,omitempty"`
}

// Key identifies a case across snapshots, independent of how many
// cycles each side measured.
func (c Case) Key() string {
	topo := c.Topo
	if topo == "" {
		topo = "mesh"
	}
	k := fmt.Sprintf("%s-%dx%d-w%d", topo, c.Width, c.Height, c.Workers)
	if c.ObsMode != ObsOff {
		k += "-" + c.ObsMode
	}
	return k
}

// Point is one measured case.
type Point struct {
	Case
	StepsPerSec        float64 `json:"steps_per_sec"`
	RouterCyclesPerSec float64 `json:"router_cycles_per_sec"`
	AllocsPerStep      float64 `json:"allocs_per_step"` // steady state; contract: 0
	BytesPerStep       float64 `json:"bytes_per_step"`
}

// Snapshot is a recorded benchmark trajectory plus enough machine
// context to judge whether a comparison is meaningful.
type Snapshot struct {
	Schema    string  `json:"schema"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	CPUs      int     `json:"cpus"`
	Points    []Point `json:"points"`
}

// DefaultTrajectory is the full checked-in curve: mesh size scaling at
// one worker, worker scaling at 64x64, and the torus/cmesh families.
// Measurement windows shrink as meshes grow so every point costs
// roughly the same wall time.
func DefaultTrajectory() []Case {
	return []Case{
		{Topo: "", Width: 8, Height: 8, Workers: 1, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 3000},
		{Topo: "", Width: 16, Height: 16, Workers: 1, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 2000},
		{Topo: "", Width: 32, Height: 32, Workers: 1, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 1000},
		{Topo: "", Width: 64, Height: 64, Workers: 1, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 400},
		{Topo: "", Width: 64, Height: 64, Workers: 2, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 400},
		{Topo: "", Width: 64, Height: 64, Workers: 4, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 400},
		{Topo: "", Width: 64, Height: 64, Workers: 8, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 400},
		{Topo: "torus", Width: 32, Height: 32, Workers: 1, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 1000},
		{Topo: "torus", Width: 32, Height: 32, Workers: 4, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 1000},
		{Topo: "cmesh", Width: 32, Height: 32, Workers: 4, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 1000},
		// Observability overhead: the same 32x32 mesh with counters,
		// stall attribution and windows on, and with the flight recorder
		// armed on top. Compare against the w1 obs-off point above.
		{Topo: "", Width: 32, Height: 32, Workers: 1, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 1000, ObsMode: ObsOn},
		{Topo: "", Width: 32, Height: 32, Workers: 1, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 1000, ObsMode: ObsFlight},
		{Topo: "", Width: 64, Height: 64, Workers: 4, Rate: 0.02, WarmupCycles: 200, MeasureCycles: 400, ObsMode: ObsOn},
	}
}

// QuickTrajectory is the short CI smoke subset: same keys as the
// corresponding DefaultTrajectory points (so Compare can match them)
// with smaller measurement windows.
func QuickTrajectory() []Case {
	return []Case{
		{Topo: "", Width: 16, Height: 16, Workers: 1, Rate: 0.02, WarmupCycles: 100, MeasureCycles: 400},
		{Topo: "", Width: 64, Height: 64, Workers: 1, Rate: 0.02, WarmupCycles: 100, MeasureCycles: 120},
		{Topo: "", Width: 64, Height: 64, Workers: 4, Rate: 0.02, WarmupCycles: 100, MeasureCycles: 120},
		{Topo: "torus", Width: 32, Height: 32, Workers: 4, Rate: 0.02, WarmupCycles: 100, MeasureCycles: 200},
		// The CI strict gate also pins the zero-alloc contract with
		// observability on (counters + windows + flight recorder).
		{Topo: "", Width: 16, Height: 16, Workers: 1, Rate: 0.02, WarmupCycles: 100, MeasureCycles: 400, ObsMode: ObsFlight},
	}
}

// Measure runs one case: a timed window with live traffic for the
// throughput numbers, then — once the injection side has gone idle — a
// short drain-phase window for the steady-state allocation numbers.
func Measure(c Case) (Point, error) {
	nodes := c.Width * c.Height
	horizon := sim.Cycle(c.WarmupCycles + c.MeasureCycles)
	src := traffic.NewSynthetic(nodes, c.Rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), 7)
	src.StopAt(horizon)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	switch c.ObsMode {
	case ObsOff:
	case ObsOn, ObsFlight:
		o := obs.New(0)
		o.Windows = obs.NewWindows(nodes, rc.Ports, rc.VCs, obs.DefaultBucketCycles, obs.DefaultWindowBucket)
		if c.ObsMode == ObsFlight {
			o.Flight = obs.NewFlightRecorder(nodes, obs.DefaultFlightEvents)
		}
		rc.Obs = o
	default:
		return Point{}, fmt.Errorf("perf: %s: unknown obs mode %q", c.Key(), c.ObsMode)
	}
	n, err := noc.New(noc.Config{
		Width: c.Width, Height: c.Height, Topo: c.Topo,
		Router: rc, Warmup: 50, Workers: c.Workers,
	}, src)
	if err != nil {
		return Point{}, fmt.Errorf("perf: %s: %w", c.Key(), err)
	}
	defer n.Close()

	n.Run(sim.Cycle(c.WarmupCycles))
	start := time.Now()
	n.Run(sim.Cycle(c.MeasureCycles))
	elapsed := time.Since(start).Seconds()

	// Flush the injection backlog so the allocation window covers only
	// the steady-state hot path (compute, local commit, link commit).
	for i := 0; i < 200 && !n.InjectionIdle(); i++ {
		n.Run(50)
	}
	if !n.InjectionIdle() {
		return Point{}, fmt.Errorf("perf: %s: injection backlog did not flush", c.Key())
	}
	const allocSteps = 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Warm the measurement regime before reading the counters: the first
	// steps after clamping GOMAXPROCS can make the scheduler allocate
	// park/unpark bookkeeping for the worker pool's channels, which is
	// runtime noise, not step-path allocation.
	for i := 0; i < 8; i++ {
		n.Step()
	}
	// Run one throwaway window first: a single stray runtime malloc (heap
	// sampling re-arming, scavenger bookkeeping) can land in the first
	// window after a GC in a fresh process and would read as a contract
	// violation. The second window is the measurement.
	var m0, m1 runtime.MemStats
	for window := 0; window < 2; window++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < allocSteps; i++ {
			n.Step()
		}
		runtime.ReadMemStats(&m1)
	}

	p := Point{Case: c}
	p.StepsPerSec = float64(c.MeasureCycles) / elapsed
	p.RouterCyclesPerSec = p.StepsPerSec * float64(nodes)
	p.AllocsPerStep = float64(m1.Mallocs-m0.Mallocs) / allocSteps
	p.BytesPerStep = float64(m1.TotalAlloc-m0.TotalAlloc) / allocSteps
	return p, nil
}

// Collect measures every case and assembles a snapshot. progress (may
// be nil) receives each point as it lands, for live output.
func Collect(cases []Case, progress func(Point)) (Snapshot, error) {
	s := Snapshot{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	for _, c := range cases {
		p, err := Measure(c)
		if err != nil {
			return Snapshot{}, err
		}
		if progress != nil {
			progress(p)
		}
		s.Points = append(s.Points, p)
	}
	return s, nil
}

// WriteFile writes the snapshot as indented JSON.
func WriteFile(path string, s Snapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile reads a snapshot and rejects unknown schemas.
func ReadFile(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("perf: %s: %w", path, err)
	}
	if s.Schema != Schema {
		return Snapshot{}, fmt.Errorf("perf: %s: schema %q, want %q (regenerate with noctool bench)",
			path, s.Schema, Schema)
	}
	return s, nil
}

// Compare checks fresh points against a reference snapshot and returns
// one finding per violation: a nonzero steady-state allocation count
// (always a failure — the zero-alloc contract does not depend on the
// machine), or throughput below (1-tol) of the reference for the same
// key (meaningful only on comparable hardware; gate it accordingly).
// Points without a matching reference key are skipped.
func Compare(ref, fresh Snapshot, tol float64) []string {
	refByKey := make(map[string]Point, len(ref.Points))
	for _, p := range ref.Points {
		refByKey[p.Key()] = p
	}
	var findings []string
	for _, p := range fresh.Points {
		if p.AllocsPerStep != 0 {
			findings = append(findings, fmt.Sprintf(
				"%s: steady-state Step allocates %.2f objects/op, want 0", p.Key(), p.AllocsPerStep))
		}
		r, ok := refByKey[p.Key()]
		if !ok {
			continue
		}
		if floor := r.RouterCyclesPerSec * (1 - tol); p.RouterCyclesPerSec < floor {
			findings = append(findings, fmt.Sprintf(
				"%s: %.0f router-cycles/sec is below %.0f (reference %.0f minus %.0f%% tolerance)",
				p.Key(), p.RouterCyclesPerSec, floor, r.RouterCyclesPerSec, tol*100))
		}
	}
	return findings
}
