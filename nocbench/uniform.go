package main

import (
	"gonoc/internal/noc"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/traffic"
)

// Uniform-32x32 parameters. The load is held constant per link by
// scaling the rate as 1/k. At 0.32/k the mean latency is within 4% of
// zero-load on a 32x32 mesh, so the network is loaded but not saturated
// (see README.md).
const (
	uniformK       = 32
	uniformLoadK   = 0.32 // packets/node/cycle times k
	uniformSpeedup = 1000 // cycles timed by the traced run's worker-count twins
)

var uniformSpec = meshSpec{
	routers:    uniformK * uniformK,
	warmup:     1000,
	chunk:      250,
	prefix:     300,
	cyclesPerS: 700,
}

// buildUniform makes the fault-free uniform-traffic mesh.
func buildUniform(seed uint64, workers int, stop sim.Cycle, probe *phaseProbe) meshRun {
	nodes := uniformK * uniformK
	src := traffic.NewSynthetic(nodes, uniformLoadK/uniformK, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), seed)
	src.StopAt(stop)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	tr := newTracedTraffic(src, nodes)
	n := noc.MustNew(noc.Config{
		Width: uniformK, Height: uniformK, Router: rc, Warmup: uniformSpec.warmup, Workers: workers,
	}, tr)
	m := meshRun{n: n, tr: tr, probe: probe}
	if probe != nil {
		attachProbe(n, tr, probe, nil)
	}
	return m
}

func runUniform(cfg runConfig, r *report) error {
	spec := uniformSpec
	spec.build = func(workers int, stop sim.Cycle, probe *phaseProbe) meshRun {
		return buildUniform(cfg.seed, workers, stop, probe)
	}
	r.note("%dx%d fault-free mesh, uniform open-loop traffic at %.5f packets/node/cycle (%.2f/k), bimodal 1/5 flits",
		uniformK, uniformK, uniformLoadK/uniformK, uniformLoadK)
	j := runMeshJob(cfg, r, spec)
	defer j.m.n.Close()
	if !cfg.trace {
		return nil
	}
	t := runTracedMesh(cfg, r, spec, j)
	defer t.m.n.Close()
	wN, _ := twinStepNs(spec, spec.build(cfg.workers, j.stop, newPhaseProbe(uniformSpeedup)), uniformSpeedup)
	w1, _ := twinStepNs(spec, spec.build(1, j.stop, newPhaseProbe(uniformSpeedup)), uniformSpeedup)
	reportLayers(r, layerInputs{
		probe: t.m.probe, core: t.core, stats: j.stats, traffic: *t.m.tr,
		runtime: j.runtime, untracedS: robustSeconds(j.chunks), tracedS: t.hostS,
		parallelSpeedup: float64(w1) / float64(wN),
	})
	return nil
}
