package main

import (
	"time"

	"gonoc/internal/experiments"
	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/stats"
	"gonoc/internal/sweep"
	"gonoc/internal/topology"
	"gonoc/internal/workloads"
)

// fig7Run is one of an app's two networks, built the way
// experiments.RunApp builds it.
type fig7Run struct {
	n     *noc.Network
	tr    *tracedTraffic
	inj   *fault.Injector
	probe *phaseProbe
	// chunks holds the host seconds of each fig7Chunk cycles stepped.
	chunks []float64
}

// fig7Chunk is the cycle count timed as one sample.
const fig7Chunk = 1000

// fig7App is one application's fault-free and fault-injected pair.
type fig7App struct {
	app          workloads.App
	clean, dirty *fig7Run
	hostS        float64
}

// buildFig7 makes every app's pair of networks with the same calls and
// seeds as experiments.RunApp. With trace set, each network gets a
// phase probe whose hooks sit around the injector.
func buildFig7(cfg experiments.LatencyConfig, trace bool) []*fig7App {
	var out []*fig7App
	for _, app := range workloads.SPLASH2() {
		a := &fig7App{app: app}
		for _, faulty := range []bool{false, true} {
			rc := router.DefaultConfig()
			rc.FaultTolerant = true
			mesh := topology.NewMesh(cfg.Width, cfg.Height)
			coh := workloads.NewCoherence(app, mesh, cfg.Seed)
			// Requests stop after the measured window so the network
			// can drain; the window itself is unchanged.
			coh.StopAt(cfg.Warmup + cfg.Measure)
			tr := newTracedTraffic(coh, mesh.Nodes())
			n := noc.MustNew(noc.Config{
				Width: cfg.Width, Height: cfg.Height, Router: rc, Warmup: cfg.Warmup,
				Workers: cfg.StepWorkers,
			}, tr)
			run := &fig7Run{n: n, tr: tr}
			addInjector := func() {
				if faulty {
					run.inj = fault.NewInjector(n, cfg.FaultMean, cfg.Seed^0x9e3779b9, true)
				}
			}
			if trace {
				run.probe = newPhaseProbe(int(cfg.Warmup + cfg.Measure))
				attachProbe(n, tr, run.probe, addInjector)
			} else {
				addInjector()
			}
			if faulty {
				a.dirty = run
			} else {
				a.clean = run
			}
		}
		out = append(out, a)
	}
	return out
}

func closeFig7(apps []*fig7App) {
	for _, a := range apps {
		a.clean.n.Close()
		a.dirty.n.Close()
	}
}

// fig7Pass is one timed run of the whole suite.
type fig7Pass struct {
	wallS   float64
	cpuS    float64
	runtime runtimeSnap
	heapMiB float64
}

// runFig7Pass steps every app's pair, fanning apps out over workers with
// sweep exactly as experiments.RunSuite does, clean network first.
func runFig7Pass(cfg experiments.LatencyConfig, apps []*fig7App, workers int) fig7Pass {
	cycles := cfg.Warmup + cfg.Measure
	step := func(r *fig7Run) {
		m := meshRun{n: r.n, tr: r.tr, probe: r.probe}
		r.chunks = append(r.chunks[:0], m.stepTimed(cycles, fig7Chunk)...)
	}
	heap := watchHeap()
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	sweep.Map(apps, workers, func(a *fig7App) struct{} {
		s := time.Now()
		step(a.clean)
		step(a.dirty)
		a.hostS = time.Since(s).Seconds()
		return struct{}{}
	})
	p := fig7Pass{wallS: time.Since(t0).Seconds(), cpuS: cpuSeconds() - cpu0}
	p.runtime = readRuntime().sub(rt0)
	p.heapMiB = heap.finish()
	return p
}

// point is the app's Figure 7 bar pair, read the way RunApp reads it.
func (a *fig7App) point() experiments.LatencyPoint {
	q := func(st *stats.Collector) experiments.Quantiles {
		return experiments.Quantiles{P50: st.Percentile(50), P95: st.Percentile(95), P99: st.Percentile(99)}
	}
	cs, ds := a.clean.n.Stats(), a.dirty.n.Stats()
	pt := experiments.LatencyPoint{
		App: a.app.Name, FaultFree: cs.AvgLatency(), Faulty: ds.AvgLatency(),
		FaultFreeQ: q(cs), FaultyQ: q(ds), Faults: len(a.dirty.inj.Injected()),
	}
	if pt.FaultFree > 0 {
		pt.DeltaPct = (pt.Faulty - pt.FaultFree) / pt.FaultFree * 100
	}
	return pt
}

// sweepSeconds is a pass's robust host time: every network's robust
// time, spread over the sweep workers.
func sweepSeconds(apps []*fig7App, workers int) float64 {
	var s float64
	for _, a := range apps {
		s += robustSeconds(a.clean.chunks) + robustSeconds(a.dirty.chunks)
	}
	return s / float64(min(workers, len(apps)))
}

func runFig7(cfg runConfig, r *report) error {
	lc := experiments.DefaultLatencyConfig()
	lc.Seed = cfg.seed
	lc.Workers = cfg.workers
	cycles := lc.Warmup + lc.Measure
	r.note("8x8 protected mesh, SPLASH-2 coherence traffic, %d apps x {fault-free, faulty}, %d cycles each, fault mean %d, sweep workers %d",
		len(workloads.SPLASH2()), cycles, lc.FaultMean, cfg.workers)

	var apps []*fig7App
	setup := timeSetup(15, func(last bool) {
		apps = buildFig7(lc, false)
		if !last {
			closeFig7(apps)
		}
	})
	defer closeFig7(apps)
	pass := runFig7Pass(lc, apps, cfg.workers)
	hostS := sweepSeconds(apps, cfg.workers)
	r.note("suite: %.2f s wall, %.2f s robust (median chunk x chunks, over %d workers), %.2f s CPU",
		pass.wallS, hostS, cfg.workers, pass.cpuS)

	// Simulated outputs, read before the drain as Figure 7 reads them.
	var clean, dirty float64
	var injected uint64
	var appAvg, appP99 []float64
	pooled := stats.NewCollector(lc.Warmup)
	points := map[string]experiments.LatencyPoint{}
	for _, a := range apps {
		pt := a.point()
		points[a.app.Name] = pt
		clean += pt.FaultFree
		dirty += pt.Faulty
		injected += uint64(pt.Faults)
		appAvg = append(appAvg, pt.Faulty)
		appP99 = append(appP99, pt.FaultyQ.P99)
		if err := pooled.Merge(a.dirty.n.Stats()); err != nil {
			return err
		}
		r.note("%-9s %6.1f -> %6.1f cycles (%+6.1f%%, %d faults)  p99 %4.0f -> %4.0f",
			pt.App, pt.FaultFree, pt.Faulty, pt.DeltaPct, pt.Faults, pt.FaultFreeQ.P99, pt.FaultyQ.P99)
	}
	deltaPct := (dirty - clean) / clean * 100
	r.note("Figure 7 overall latency increase %+.1f%%; pooled faulty runs: mean %.2f, p99 %.0f cycles",
		deltaPct, pooled.AvgLatency(), pooled.Percentile(99))

	// Drain every network with requests stopped, then account packets.
	sweep.Map(apps, cfg.workers, func(a *fig7App) struct{} {
		a.clean.n.Drain(cycles + 100000)
		a.dirty.n.Drain(cycles + 100000)
		return struct{}{}
	})
	var st statTotals
	var core coreTotals
	var tt tracedTraffic
	for _, a := range apps {
		for _, run := range []*fig7Run{a.clean, a.dirty} {
			st.add(run.n.Stats())
			core.add(run.n)
			tt.offered += run.tr.offered
			tt.replies += run.tr.replies
			tt.ejects += run.tr.ejects
		}
	}
	netCycles := uint64(2*len(apps)) * uint64(cycles)
	routerCycles := netCycles * uint64(lc.Width*lc.Height)

	checkConservation(r, st, tt.offered+tt.replies, tt.ejects)
	r.check("full_delivery_after_drain", st.inFlight == 0 && st.deliveryRatio() == 1,
		"%d of %d packets delivered, %d in flight", st.ejected, st.created-st.retransmits, st.inFlight)
	ref := experiments.RunApp(fig7RefApp(), lc)
	got := points[ref.App]
	r.check("runapp_bit_exact", got == ref,
		"%s: benchmark (%v, %v, %d faults) vs experiments.RunApp (%v, %v, %d faults)",
		ref.App, got.FaultFree, got.Faulty, got.Faults, ref.FaultFree, ref.Faulty, ref.Faults)

	// Load and FT activity include the drain; host time covers only the
	// timed window, whose size is network_cycles.
	r.count("network_cycles", netCycles)
	r.count("router_cycles", routerCycles)
	r.count("flit_hops", core.flits)
	r.count("packets_created", st.created)
	r.count("packets_delivered", st.ejected)
	r.count("faults_injected", injected)

	r.metric("setup_s", setup, "s")
	r.metric("router_cycles_per_s", float64(routerCycles)/hostS, "router-cycles/s")
	r.metric("states_per_s", float64(netCycles)/hostS, "states/s")
	r.metric("allocs_per_kcycle", float64(pass.runtime.allocs)/(float64(netCycles)/1000), "allocs/kcycle")
	r.metric("peak_heap_mb", pass.heapMiB, "MiB")
	r.metric("sim_latency_avg_cycles", median(appAvg), "cycles")
	r.metric("sim_latency_p99_cycles", median(appP99), "cycles")
	r.metric("delivery_ratio", st.deliveryRatio(), "ratio")

	if !cfg.trace {
		return nil
	}
	traced := buildFig7(lc, true)
	defer closeFig7(traced)
	tp := runFig7Pass(lc, traced, cfg.workers)
	same := true
	for _, a := range traced {
		same = same && a.point() == points[a.app.Name]
	}
	r.check("probes_transparent", same, "traced and untraced passes give identical latency pairs")

	probe := newPhaseProbe(0)
	var tcore coreTotals
	var ttr tracedTraffic
	var appS []float64
	for _, a := range traced {
		for _, run := range []*fig7Run{a.clean, a.dirty} {
			probe.merge(run.probe)
			tcore.add(run.n)
			ttr.offered += run.tr.offered
			ttr.replies += run.tr.replies
			ttr.onEjectNs += run.tr.onEjectNs
		}
		appS = append(appS, a.hostS)
	}
	reportLayers(r, layerInputs{
		probe: probe, core: tcore, stats: st, traffic: ttr, faults: injected,
		runtime: tp.runtime, untracedS: hostS, tracedS: sweepSeconds(traced, cfg.workers),
		appS: appS, suiteWallS: tp.wallS, workers: cfg.workers,
		faultDeltaPct: deltaPct, pooledFaultyAvg: pooled.AvgLatency(), pooledFaultyP99: pooled.Percentile(99),
	})
	return nil
}

// fig7RefApp is the app whose latency pair is checked against
// experiments.RunApp: the cheapest to simulate.
func fig7RefApp() workloads.App {
	for _, a := range workloads.SPLASH2() {
		if a.Name == "water" {
			return a
		}
	}
	panic("nocbench: no water app in SPLASH2")
}
