package main

import "gonoc/internal/obs"

// layerInputs gathers what reportLayers needs; zero fields report 0
// (not measured on this workload).
type layerInputs struct {
	probe   *phaseProbe
	core    coreTotals
	stats   statTotals
	traffic tracedTraffic
	faults  uint64
	runtime runtimeSnap
	// untracedS and tracedS are the host seconds of the same job
	// without and with probes.
	untracedS, tracedS float64
	// appS is each sweep job's host seconds, suiteWallS the traced
	// sweep's wall time and workers its fan-out.
	appS       []float64
	suiteWallS float64
	workers    int
	// The Figure 7 tail, which the gated medians-over-apps leave out.
	faultDeltaPct, pooledFaultyAvg, pooledFaultyP99 float64

	parallelSpeedup                    float64
	snapshotNs, restoreNs, statehashNs float64
	obsOverhead                        float64
	stalls                             [obs.NumStallKinds]uint64
	mcStates, mcTransitions            uint64
	mcScenarioMaxS                     float64
}

// reportLayers emits every per-layer metric in a fixed order, so each
// workload's traced run prints the same names.
func reportLayers(r *report, in layerInputs) {
	probe := in.probe
	if probe == nil {
		probe = newPhaseProbe(0)
	}
	probe.report(r)
	r.layer("noc.parallel_speedup", in.parallelSpeedup, "x")
	r.layer("noc.snapshot_ns", in.snapshotNs, "ns")
	r.layer("noc.restore_ns", in.restoreNs, "ns")
	r.layer("noc.statehash_ns", in.statehashNs, "ns")
	r.layer("noc.ns_per_flit_hop", float64(probe.stepSum())/float64(max(in.core.flits, 1)), "ns")
	in.core.report(r)
	r.layer("traffic.packets_offered", float64(in.traffic.offered), "count")
	r.layer("traffic.replies", float64(in.traffic.replies), "count")
	r.layer("traffic.on_eject_ns", float64(in.traffic.onEjectNs), "ns")
	in.stats.report(r)
	r.layer("fault.injected", float64(in.faults), "count")
	var maxS, sumS float64
	for _, s := range in.appS {
		maxS = max(maxS, s)
		sumS += s
	}
	meanS, imbalance := 0.0, 0.0
	if len(in.appS) > 0 {
		meanS = sumS / float64(len(in.appS))
		// Suite wall time over the ideal (total work spread evenly over
		// the workers): 1 is a perfectly balanced fan-out.
		imbalance = in.suiteWallS / (sumS / float64(min(in.workers, len(in.appS))))
	}
	r.layer("sweep.app_s.max", maxS, "s")
	r.layer("sweep.app_s.mean", meanS, "s")
	r.layer("sweep.imbalance", imbalance, "ratio")
	r.layer("sim.fault_latency_delta_pct", in.faultDeltaPct, "%")
	r.layer("sim.faulty_latency_pooled_avg_cycles", in.pooledFaultyAvg, "cycles")
	r.layer("sim.faulty_latency_pooled_p99_cycles", in.pooledFaultyP99, "cycles")
	r.layer("obs.overhead_frac", in.obsOverhead, "ratio")
	for i, n := range in.stalls {
		r.layer("obs.stall_"+obs.StallKind(i).String(), float64(n), "count")
	}
	r.layer("modelcheck.states", float64(in.mcStates), "count")
	r.layer("modelcheck.transitions", float64(in.mcTransitions), "count")
	r.layer("modelcheck.scenario_s.max", in.mcScenarioMaxS, "s")
	reportRuntime(r, in.runtime)
	r.layer("trace.untraced_s", in.untracedS, "s")
	r.layer("trace.traced_s", in.tracedS, "s")
	r.layer("trace.overhead_s", in.tracedS-in.untracedS, "s")
	r.layer("trace.overhead_frac", (in.tracedS-in.untracedS)/in.untracedS, "ratio")
	// The phases are bracketed inside each step; their sum should come
	// within the probes' own cost of the step mean.
	n := float64(max(len(probe.stepNs), 1))
	r.layer("trace.phase_sum_ns_per_cycle", float64(probe.hooks+probe.retx+probe.inject+probe.computeCommit)/n, "ns")
	r.layer("trace.probe_ns_per_cycle", float64(probe.reads)/n*clockReadNs(), "ns")
}
