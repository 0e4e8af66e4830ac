package main

import (
	"math"
	"time"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// meshRun is one synthetic-traffic mesh network, its traffic wrapper and
// its phase probe (nil when untraced).
type meshRun struct {
	n     *noc.Network
	tr    *tracedTraffic
	probe *phaseProbe
}

// stepTimed steps m from its current cycle to end in chunks, returning
// each chunk's host seconds, scaled to a whole chunk for a short last
// one. A probed run steps through the probe.
func (m *meshRun) stepTimed(end sim.Cycle, chunk sim.Cycle) []float64 {
	var ts []float64
	for m.n.Now() < end {
		k := min(chunk, end-m.n.Now())
		t0 := time.Now()
		if m.probe == nil {
			m.n.Run(k)
		} else {
			for i := sim.Cycle(0); i < k; i++ {
				m.probe.step(m.n)
			}
		}
		ts = append(ts, time.Since(t0).Seconds()*float64(chunk)/float64(k))
	}
	return ts
}

// robustSeconds estimates a stepped job's host seconds as its median
// chunk time times the chunk count, so a burst of interference from
// outside the process moves it less than the raw sum.
func robustSeconds(chunks []float64) float64 { return median(chunks) * float64(len(chunks)) }

// meshSpec is one synthetic-traffic mesh workload: uniform-32x32 or
// linkfault-obs-16x16.
type meshSpec struct {
	routers int
	warmup  sim.Cycle
	chunk   sim.Cycle
	// prefix is how many cycles are compared across worker counts.
	prefix sim.Cycle
	// cyclesPerS turns --seconds into measured cycles, so simulated
	// numbers depend only on the seed and --seconds.
	cyclesPerS float64
	// build makes the workload's network, stopping requests at stop.
	build func(workers int, stop sim.Cycle, probe *phaseProbe) meshRun
}

// meshJob is what the untraced job leaves for the traced run.
type meshJob struct {
	m          meshRun // drained after the timed window
	stop       sim.Cycle
	chunks     []float64
	runtime    runtimeSnap
	stats      statTotals
	core       coreTotals
	hashAtStop uint64
}

// runMeshJob times set-up, checks worker-count invariance on a prefix,
// runs the timed window, drains, checks the outputs and reports the
// work counts and end-to-end metrics.
func runMeshJob(cfg runConfig, r *report, spec meshSpec) meshJob {
	measure := sim.Cycle(math.Ceil(cfg.seconds*spec.cyclesPerS/float64(spec.chunk))) * spec.chunk
	j := meshJob{stop: spec.warmup + measure}
	r.note("%d warmup + %d measured cycles, Workers %d", spec.warmup, measure, cfg.workers)
	setup := timeSetup(15, func(last bool) {
		j.m = spec.build(cfg.workers, j.stop, nil)
		if !last {
			j.m.n.Close()
		}
	})

	j.m.n.Run(spec.prefix)
	serial := spec.build(1, j.stop, nil)
	serial.n.Run(spec.prefix)
	h1, hN := serial.n.StateHash(), j.m.n.StateHash()
	serial.n.Close()
	r.check("statehash_workers_invariant", h1 == hN,
		"cycle %d: Workers=1 %016x, Workers=%d %016x", spec.prefix, h1, cfg.workers, hN)
	j.m.n.Run(spec.warmup - spec.prefix)

	heap := watchHeap()
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	j.chunks = j.m.stepTimed(j.stop, spec.chunk)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	j.runtime = readRuntime().sub(rt0)
	heapMiB := heap.finish()
	perChunk := float64(spec.chunk) * float64(spec.routers)
	rate := perChunk / median(j.chunks)
	r.note("measured window: %.2f s wall, %.2f s CPU, chunk rates p10 %.0f p50 %.0f p90 %.0f router-cycles/s",
		wall, cpu, perChunk/quantile(j.chunks, 0.9), rate, perChunk/quantile(j.chunks, 0.1))

	st := j.m.n.Stats()
	avg, p99 := st.AvgLatency(), st.Percentile(99)
	inFlightAtStop := st.InFlight()
	j.hashAtStop = j.m.n.StateHash()
	drained := j.m.n.Drain(j.stop + 100000)
	j.stats.add(st)
	j.core.add(j.m.n)
	s := j.stats
	checkConservation(r, s, j.m.tr.offered+j.m.tr.replies, j.m.tr.ejects)
	r.check("full_delivery_after_drain", drained && s.deliveryRatio() == 1,
		"%d of %d unique packets delivered after %d retransmissions; %d in flight when requests stopped",
		s.ejected, s.created-s.retransmits, s.retransmits, inFlightAtStop)

	r.count("router_cycles", uint64(measure)*uint64(spec.routers))
	r.count("flit_hops", j.core.flits)
	r.count("packets_created", s.created)
	r.count("packets_delivered", s.ejected)
	r.count("packets_dropped", s.dropped)
	r.count("retransmissions", s.retransmits)
	r.count("packets_in_flight_at_stop", inFlightAtStop)
	r.count("reroutes", j.core.reroutes)

	r.metric("setup_s", setup, "s")
	r.metric("router_cycles_per_s", rate, "router-cycles/s")
	r.metric("states_per_s", rate/float64(spec.routers), "states/s")
	r.metric("allocs_per_kcycle", float64(j.runtime.allocs)/(float64(measure)/1000), "allocs/kcycle")
	r.metric("peak_heap_mb", heapMiB, "MiB")
	r.metric("sim_latency_avg_cycles", avg, "cycles")
	r.metric("sim_latency_p99_cycles", p99, "cycles")
	r.metric("delivery_ratio", s.deliveryRatio(), "ratio")
	return j
}

// tracedMesh is the traced repeat of a mesh job's timed window.
type tracedMesh struct {
	m meshRun
	// hostS is the window's robust host seconds; core the router counts
	// accumulated in it.
	hostS float64
	core  coreTotals
}

// runTracedMesh repeats the timed window with a phase probe attached and
// checks that the probe left the simulation unchanged. The caller closes
// the returned network.
func runTracedMesh(cfg runConfig, r *report, spec meshSpec, j meshJob) tracedMesh {
	t := tracedMesh{m: spec.build(cfg.workers, j.stop, newPhaseProbe(int(j.stop)))}
	t.m.n.Run(spec.warmup)
	var before coreTotals
	before.add(t.m.n)
	t.hostS = robustSeconds(t.m.stepTimed(j.stop, spec.chunk))
	t.core.add(t.m.n)
	t.core = t.core.sub(before)
	r.check("probes_transparent", t.m.n.StateHash() == j.hashAtStop,
		"traced and untraced runs reach the same state at cycle %d", j.stop)
	return t
}

// twinStepNs steps twin, a probed copy of the workload, through its
// first n measured cycles, closes it, and returns their total step time
// in ns and the state hash it reached.
func twinStepNs(spec meshSpec, twin meshRun, n sim.Cycle) (int64, uint64) {
	defer twin.n.Close()
	twin.n.Run(spec.warmup)
	twin.stepTimed(spec.warmup+n, spec.chunk)
	return twin.probe.stepSum(), twin.n.StateHash()
}
