package main

import (
	"time"

	"gonoc/internal/modelcheck"
	"gonoc/internal/rng"
	"gonoc/internal/stats"
)

// checkOptions are noctool check's defaults.
var checkOptions = modelcheck.Options{MaxStates: 1 << 22, MaxDepth: 4096}

// checkScenarios is the `noctool check` sweep on the 2x2 mesh: the ring
// scenario fault free and under every single link and router fault.
func checkScenarios() []modelcheck.Scenario {
	return modelcheck.SingleFaultSweep(modelcheck.Ring(2, 2))
}

// checkPass is one timed exploration of every scenario.
type checkPass struct {
	results []modelcheck.Result
	wallS   float64
	cpuS    float64
	runtime runtimeSnap
	heapMiB float64
}

func runCheckPass(scs []modelcheck.Scenario) (checkPass, error) {
	heap := watchHeap()
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var p checkPass
	for _, sc := range scs {
		res, err := modelcheck.Explore(sc, checkOptions)
		if err != nil {
			heap.finish()
			return p, err
		}
		p.results = append(p.results, res)
	}
	p.wallS = time.Since(t0).Seconds()
	p.cpuS = cpuSeconds() - cpu0
	p.runtime = readRuntime().sub(rt0)
	p.heapMiB = heap.finish()
	return p, nil
}

// replayPlans is how many seeded release plans each scenario is
// replayed under, so the latency tail pools enough packets.
const replayPlans = 32

// releasePlans draws, from the seed, replayPlans plans; each gives the
// cycle (0..3) at which every scenario packet is offered in a replayed
// execution.
func releasePlans(seed uint64, packets int) [][]int {
	r := rng.New(seed)
	out := make([][]int, replayPlans)
	for i := range out {
		out[i] = make([]int, packets)
		for j := range out[i] {
			out[i][j] = r.Intn(4)
		}
	}
	return out
}

// replayTrace is the explorer choice sequence that offers each packet at
// its release cycle (ascending source within a cycle, as the explorer
// orders same-cycle injections) and ticks once per cycle through the
// last release.
func replayTrace(sc modelcheck.Scenario, release []int) []modelcheck.Choice {
	var trace []modelcheck.Choice
	for c := 0; c < 4; c++ {
		for i, p := range sc.Packets {
			if release[i] == c {
				trace = append(trace, modelcheck.Choice{Op: modelcheck.OpInject, Src: p.Src})
			}
		}
		trace = append(trace, modelcheck.Choice{Op: modelcheck.OpTick})
	}
	return trace
}

// replayOutcome is one scenario's replayed execution, run to completion.
type replayOutcome struct {
	st        *stats.Collector
	reachable int
	drained   bool
}

// replayScenario rebuilds sc with modelcheck.Replay, applies the seeded
// release trace and steps until the network drains. A non-nil probe
// times those steps; core, when non-nil, accumulates router counters.
func replayScenario(sc modelcheck.Scenario, release []int, probe *phaseProbe, core *coreTotals) (replayOutcome, error) {
	n, err := modelcheck.Replay(sc, replayTrace(sc, release), nil)
	if err != nil {
		return replayOutcome{}, err
	}
	defer n.Close()
	out := replayOutcome{st: n.Stats()}
	for _, p := range sc.Packets {
		if n.Reachable(p.Src, p.Dst) {
			out.reachable++
		}
	}
	for i := 0; i < 1000 && !(n.Stats().InFlight() == 0 && n.PendingRetx() == 0); i++ {
		if probe != nil {
			probe.step(n)
		} else {
			n.Step()
		}
	}
	out.drained = n.Stats().InFlight() == 0 && n.PendingRetx() == 0
	if core != nil {
		core.add(n)
	}
	return out, nil
}

// snapshotOps times Snapshot, Restore and StateHash on a mid-flight
// scenario network and reports whether a snapshot round trip preserves
// the state hash. It returns the median ns of each operation.
func snapshotOps(sc modelcheck.Scenario, release []int, reps int) (snap, restore, hash float64, roundTrip bool, err error) {
	trace := replayTrace(sc, release)
	// Stop one tick short of the full trace so flits are in flight.
	n, err := modelcheck.Replay(sc, trace[:len(trace)-1], nil)
	if err != nil {
		return 0, 0, 0, false, err
	}
	defer n.Close()
	before := n.StateHash()
	s := n.Snapshot()
	n.Step()
	n.Restore(s)
	roundTrip = n.StateHash() == before
	time1 := func(op func()) float64 {
		ts := make([]float64, reps)
		for i := range ts {
			t0 := nanotime()
			op()
			ts[i] = float64(nanotime() - t0)
		}
		return median(ts)
	}
	snap = time1(func() { s = n.Snapshot() })
	restore = time1(func() { n.Restore(s) })
	hash = time1(func() { n.StateHash() })
	return snap, restore, hash, roundTrip, nil
}

func runCheck(cfg runConfig, r *report) error {
	r.note("noctool check sweep on the 2x2 mesh: ring traffic fault free and under every single link/router fault, exhaustive, max states %d, max depth %d",
		checkOptions.MaxStates, checkOptions.MaxDepth)
	var scs []modelcheck.Scenario
	var setupErr error
	setup := timeSetup(41, func(bool) {
		scs = checkScenarios()
		for _, sc := range scs {
			n, err := modelcheck.Replay(sc, nil, nil)
			if err != nil {
				setupErr = err
				return
			}
			n.Close()
		}
	})
	if setupErr != nil {
		return setupErr
	}

	// One warm-up sweep, whose verdicts are checked, then timed sweeps
	// (at least one) while another fits in the requested time. The
	// warm-up pays the process's first growth of a visited-state store,
	// which costs page faults rather than checker work.
	first, err := runCheckPass(scs)
	if err != nil {
		return err
	}
	r.note("warm-up pass: %.2f s wall, %.2f s CPU", first.wallS, first.cpuS)
	var passes []checkPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds()+first.wallS+passes[len(passes)-1].wallS <= cfg.seconds {
		p, err := runCheckPass(scs)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	var states, transitions uint64
	for _, res := range first.results {
		r.check("proved_"+res.Scenario.Name, res.Verdict == modelcheck.Proved,
			"%v: %d states, %d transitions, %s", res.Verdict, res.States, res.Transitions, res.Detail)
		states += uint64(res.States)
		transitions += uint64(res.Transitions)
	}
	var rates, trates, allocs, heaps, walls []float64
	for _, p := range passes {
		walls = append(walls, p.wallS)
		rates = append(rates, float64(states)/p.wallS)
		trates = append(trates, float64(transitions)/p.wallS)
		allocs = append(allocs, float64(p.runtime.allocs)/(float64(transitions)/1000))
		heaps = append(heaps, p.heapMiB)
	}
	for i, p := range passes {
		r.note("pass %d: %.2f s wall, %.2f s CPU", i+1, p.wallS, p.cpuS)
	}

	// The simulated side: each scenario's packets offered at seeded
	// release cycles and run to completion on a Replay-built network.
	plans := releasePlans(cfg.seed, len(scs[0].Packets))
	pooled := stats.NewCollector(0)
	var st statTotals
	reachable := 0
	allDrained := true
	for _, sc := range scs {
		for _, release := range plans {
			out, err := replayScenario(sc, release, nil, nil)
			if err != nil {
				return err
			}
			if err := pooled.Merge(out.st); err != nil {
				return err
			}
			st.add(out.st)
			reachable += out.reachable
			allDrained = allDrained && out.drained
		}
	}
	// Unreachable packets are dropped at offer time, so conservation
	// here is: every reachable packet delivered, every other dropped.
	r.check("replay_conservation", allDrained && st.inFlight == 0 &&
		st.ejected == uint64(reachable) && st.ejected+st.dropped == st.created,
		"created %d = delivered %d (of %d reachable) + dropped %d, in flight %d",
		st.created, st.ejected, reachable, st.dropped, st.inFlight)
	_, _, _, roundTrip, err := snapshotOps(scs[0], plans[0], 1)
	if err != nil {
		return err
	}
	r.check("snapshot_round_trip", roundTrip, "Restore(Snapshot()) after a Step reproduces the StateHash")

	r.count("scenarios", uint64(len(scs)))
	r.count("modelcheck_states", states)
	r.count("modelcheck_transitions", transitions)
	r.count("replay_packets_created", st.created)
	r.count("replay_packets_delivered", st.ejected)

	routers := float64(scs[0].Width * scs[0].Height)
	r.metric("setup_s", setup, "s")
	r.metric("router_cycles_per_s", median(trates)*routers, "router-cycles/s")
	r.metric("states_per_s", median(rates), "states/s")
	r.metric("allocs_per_kcycle", median(allocs), "allocs/kcycle")
	r.metric("peak_heap_mb", median(heaps), "MiB")
	r.metric("sim_latency_avg_cycles", pooled.AvgLatency(), "cycles")
	r.metric("sim_latency_p99_cycles", pooled.Percentile(99), "cycles")
	r.metric("delivery_ratio", float64(st.ejected)/float64(reachable), "ratio")

	if !cfg.trace {
		return nil
	}
	// The explorer cannot be probed from outside, so the traced sweep is
	// a plain repeat; the probes time the replays' steps and the
	// snapshot operations instead.
	tp, err := runCheckPass(scs)
	if err != nil {
		return err
	}
	var scenarioMaxS float64
	for _, res := range tp.results {
		scenarioMaxS = max(scenarioMaxS, res.Elapsed.Seconds())
	}

	probe := newPhaseProbe(0)
	var core coreTotals
	for _, sc := range scs {
		for _, release := range plans {
			if _, err := replayScenario(sc, release, probe, &core); err != nil {
				return err
			}
		}
	}
	var snapNs, restoreNs, hashNs []float64
	for _, sc := range scs {
		s, rs, h, _, err := snapshotOps(sc, plans[0], 2000)
		if err != nil {
			return err
		}
		snapNs = append(snapNs, s)
		restoreNs = append(restoreNs, rs)
		hashNs = append(hashNs, h)
	}
	reportLayers(r, layerInputs{
		probe: probe, core: core, stats: st,
		runtime: tp.runtime, untracedS: median(walls), tracedS: tp.wallS,
		snapshotNs: median(snapNs), restoreNs: median(restoreNs), statehashNs: median(hashNs),
		mcStates: states, mcTransitions: transitions, mcScenarioMaxS: scenarioMaxS,
	})
	return nil
}
