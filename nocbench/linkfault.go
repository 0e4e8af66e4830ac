package main

import (
	"fmt"

	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// Linkfault-obs-16x16 parameters. The per-link load is 0.3 of
// uniform-32x32's because detours around the dead links concentrate
// traffic: at 0.128/k the latency tail varies widely between seeds, and
// with a shorter timeout spurious retransmissions can snowball (see
// README.md). The timeout stays above the worst-case delivery latency,
// as noc.RetxConfig asks.
const (
	linkK        = 16
	linkLoadK    = 0.096 // packets/node/cycle times k
	linkRetxWait = 2000  // retransmission timeout, cycles
	linkTwin     = 2000  // cycles timed by the traced run's twins
)

var linkSpec = meshSpec{
	routers:    linkK * linkK,
	warmup:     1000,
	chunk:      250,
	prefix:     600,
	cyclesPerS: 3600,
}

// linkKills are the dead links near the mesh centre and the cycles they
// die at. Both die during warmup, so packets in flight on them are
// dropped and recovered by retransmission; from then on the fault-aware
// tables route around them and link commit runs serially.
var linkKills = []struct {
	node int
	port topology.Port
	at   sim.Cycle
}{
	{7*linkK + 7, topology.East, 200},
	{8*linkK + 8, topology.North, 500},
}

// buildLinkfault makes the faulted mesh. With withObs the full
// observability tier is attached: counters with stall attribution,
// windowed link utilization and the flight recorder.
func buildLinkfault(seed uint64, workers int, stop sim.Cycle, withObs bool, probe *phaseProbe) meshRun {
	nodes := linkK * linkK
	src := traffic.NewSynthetic(nodes, linkLoadK/linkK, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), seed)
	src.StopAt(stop)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	if withObs {
		o := obs.New(1)
		o.Tracer.SetEnabled(false)
		o.Windows = obs.NewWindows(nodes, rc.Ports, rc.VCs, obs.DefaultBucketCycles, obs.DefaultWindowBucket)
		o.Flight = obs.NewFlightRecorder(nodes, obs.DefaultFlightEvents)
		rc.Obs = o
	}
	tr := newTracedTraffic(src, nodes)
	n := noc.MustNew(noc.Config{
		Width: linkK, Height: linkK, Router: rc, Warmup: linkSpec.warmup, Workers: workers,
		Retx: noc.RetxConfig{Timeout: linkRetxWait},
	}, tr)
	kill := func() {
		n.AddHook(func(c sim.Cycle) {
			for _, k := range linkKills {
				if c == k.at {
					if err := n.SetLinkFault(k.node, k.port, true); err != nil {
						panic(fmt.Sprintf("nocbench: link %d:%v: %v", k.node, k.port, err))
					}
				}
			}
		})
	}
	m := meshRun{n: n, tr: tr, probe: probe}
	if probe != nil {
		attachProbe(n, tr, probe, kill)
	} else {
		kill()
	}
	return m
}

// stallTotals sums the observer's stall-attribution counters by cause.
func stallTotals(o *obs.Observer) [obs.NumStallKinds]uint64 {
	var out [obs.NumStallKinds]uint64
	for _, s := range o.Metrics.Snapshot() {
		for i := range out {
			if !s.IsGauge && s.Key.Kind == obs.StallKind(i).Kind() {
				out[i] += uint64(s.Value)
			}
		}
	}
	return out
}

func runLinkfaultObs(cfg runConfig, r *report) error {
	spec := linkSpec
	spec.build = func(workers int, stop sim.Cycle, probe *phaseProbe) meshRun {
		return buildLinkfault(cfg.seed, workers, stop, true, probe)
	}
	r.note("%dx%d mesh, links %d:%v and %d:%v die at cycles %d and %d, NI retransmission timeout %d, uniform traffic at %.5f packets/node/cycle (%.3f/k), obs counters+stalls+windows+flight recorder",
		linkK, linkK, linkKills[0].node, linkKills[0].port, linkKills[1].node, linkKills[1].port,
		linkKills[0].at, linkKills[1].at, linkRetxWait, linkLoadK/linkK, linkLoadK)
	j := runMeshJob(cfg, r, spec)
	defer j.m.n.Close()
	if !cfg.trace {
		return nil
	}
	t := runTracedMesh(cfg, r, spec, j)
	defer t.m.n.Close()

	// The same network with the observer detached, for the observability
	// overhead; the observer must not change the simulation.
	bareNs, bareHash := twinStepNs(spec, buildLinkfault(cfg.seed, cfg.workers, j.stop, false, newPhaseProbe(linkTwin)), linkTwin)
	obsNs, obsHash := twinStepNs(spec, spec.build(cfg.workers, j.stop, newPhaseProbe(linkTwin)), linkTwin)
	r.check("obs_transparent", obsHash == bareHash,
		"observer on and off reach the same state at cycle %d", spec.warmup+linkTwin)
	w1, _ := twinStepNs(spec, spec.build(1, j.stop, newPhaseProbe(linkTwin)), linkTwin)
	reportLayers(r, layerInputs{
		probe: t.m.probe, core: t.core, stats: j.stats, traffic: *t.m.tr,
		runtime: j.runtime, untracedS: robustSeconds(j.chunks), tracedS: t.hostS,
		parallelSpeedup: float64(w1) / float64(obsNs),
		obsOverhead:     float64(obsNs)/float64(bareNs) - 1,
		stalls:          stallTotals(j.m.n.Obs()),
	})
	return nil
}
