package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"gonoc/internal/flit"
	"gonoc/internal/noc"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
)

// epoch anchors nanotime so every timestamp is a plain int64.
var epoch = time.Now()

// nanotime is the monotonic clock, read once per phase boundary.
func nanotime() int64 { return int64(time.Since(epoch)) }

// cpuSeconds is the process's user plus system CPU time so far. Beside a
// wall time it shows whether a slow run lost the CPU or used more of it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeSnap is the Go runtime's allocation and GC state at one instant.
type runtimeSnap struct {
	allocs   uint64  // heap objects allocated since process start
	gcCycles uint64  // completed GC cycles
	pauseS   float64 // total stop-the-world GC pause, seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readRuntime() runtimeSnap {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	snap := runtimeSnap{allocs: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
	// The pause distribution is a histogram; sum each bucket at its
	// midpoint (or its finite edge for the open-ended buckets).
	h := s[2].Value.Float64Histogram()
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if lo < -1e300 {
			mid = hi
		} else if hi > 1e300 {
			mid = lo
		}
		snap.pauseS += float64(n) * mid
	}
	return snap
}

func (a runtimeSnap) sub(b runtimeSnap) runtimeSnap {
	return runtimeSnap{a.allocs - b.allocs, a.gcCycles - b.gcCycles, a.pauseS - b.pauseS}
}

// heapWatch tracks the peak live Go heap over a job: a sampler reads the
// live heap that each GC cycle measured, and finish forces one more
// cycle while the job's structures are still reachable. watchHeap forces
// a cycle first, so a value measured before the job (while set-up or a
// twin network was still live) is never read.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func watchHeap() *heapWatch {
	runtime.GC()
	h := &heapWatch{stop: make(chan struct{}), peak: liveHeap()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(liveHeap())
			}
		}
	}()
	return h
}

func (h *heapWatch) observe(v uint64) {
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// finish stops the sampler and returns the peak live heap in MiB. Call
// it before the job's networks become garbage.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	h.done.Wait()
	runtime.GC()
	h.observe(liveHeap())
	return float64(h.peak) / (1 << 20)
}

// timeSetup runs build reps times, collecting garbage before each, and
// returns the median host seconds of one build. build must release what
// it built unless last is true; the last build is the one the job uses.
func timeSetup(reps int, build func(last bool)) float64 {
	var ts []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		build(i == reps-1)
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// Phase marks inside one Network.Step, in the order Step reaches them.
const (
	markHooksStart  = iota // benchmark hook registered before any other
	markHooksEnd           // benchmark hook registered after the injector
	markInjectStart        // first Traffic.Offered call of the cycle
	markInjectEnd          // return of the cycle's last Offered call
	numMarks
)

// phaseProbe brackets the phases of each Step of one network from
// outside: two cycle hooks around the fault injector and the first and
// last Offered calls of a tracedTraffic. The clock is read once per
// boundary, not once per Offered call.
type phaseProbe struct {
	marks [numMarks]int64
	// Per-phase totals over all probed steps, in ns.
	hooks, retx, inject, computeCommit int64
	// stepNs holds every probed step's duration.
	stepNs []int64
	// reads counts clock reads the probe and its traffic wrapper made.
	reads int64
}

func newPhaseProbe(steps int) *phaseProbe {
	return &phaseProbe{stepNs: make([]int64, 0, steps)}
}

// hookStart and hookEnd are registered with Network.AddHook before and
// after the injector respectively.
func (p *phaseProbe) hookStart(sim.Cycle) { p.marks[markHooksStart] = nanotime() }
func (p *phaseProbe) hookEnd(sim.Cycle)   { p.marks[markHooksEnd] = nanotime() }

// step runs one probed Step of n.
func (p *phaseProbe) step(n *noc.Network) {
	t0 := nanotime()
	for i := range p.marks {
		p.marks[i] = 0
	}
	n.Step()
	t1 := nanotime()
	m := p.marks
	p.reads += 2
	for _, t := range m {
		if t != 0 {
			p.reads++
		}
	}
	// A phase whose marks never fired (no traffic source, no hooks)
	// collapses onto the previous boundary.
	if m[markHooksStart] == 0 {
		m[markHooksStart] = t0
	}
	if m[markHooksEnd] == 0 {
		m[markHooksEnd] = m[markHooksStart]
	}
	if m[markInjectStart] == 0 {
		m[markInjectStart] = m[markHooksEnd]
	}
	if m[markInjectEnd] == 0 {
		m[markInjectEnd] = m[markInjectStart]
	}
	p.hooks += m[markHooksEnd] - m[markHooksStart]
	p.retx += m[markInjectStart] - m[markHooksEnd]
	p.inject += m[markInjectEnd] - m[markInjectStart]
	p.computeCommit += t1 - m[markInjectEnd]
	p.stepNs = append(p.stepNs, t1-t0)
}

// merge folds q's totals and samples into p.
func (p *phaseProbe) merge(q *phaseProbe) {
	p.hooks += q.hooks
	p.retx += q.retx
	p.inject += q.inject
	p.computeCommit += q.computeCommit
	p.stepNs = append(p.stepNs, q.stepNs...)
	p.reads += q.reads
}

// stepSum is the total probed step time in ns.
func (p *phaseProbe) stepSum() int64 {
	var s int64
	for _, d := range p.stepNs {
		s += d
	}
	return s
}

// report emits the noc.* phase metrics.
func (p *phaseProbe) report(r *report) {
	n := float64(max(len(p.stepNs), 1))
	xs := make([]float64, len(p.stepNs))
	for i, d := range p.stepNs {
		xs[i] = float64(d)
	}
	r.layer("noc.steps", float64(len(p.stepNs)), "count")
	r.layer("noc.step_ns.mean", float64(p.stepSum())/n, "ns")
	r.layer("noc.step_ns.p50", quantile(xs, 0.50), "ns")
	r.layer("noc.step_ns.p99", quantile(xs, 0.99), "ns")
	r.layer("noc.hooks_ns_per_cycle", float64(p.hooks)/n, "ns")
	r.layer("noc.retx_ns_per_cycle", float64(p.retx)/n, "ns")
	r.layer("noc.inject_ns_per_cycle", float64(p.inject)/n, "ns")
	r.layer("noc.compute_commit_ns_per_cycle", float64(p.computeCommit)/n, "ns")
}

// clockReadNs measures what one nanotime call costs, to turn the
// probes' clock reads into their share of the tracing overhead.
func clockReadNs() float64 {
	const n = 1 << 20
	var sink int64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += nanotime()
	}
	d := time.Since(t0)
	if sink == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / n
}

// tracedTraffic wraps a noc.Traffic, counting what it generates and,
// when probe is set, marking the injection phase of each cycle and
// timing OnEject.
type tracedTraffic struct {
	inner noc.Traffic
	// last is the highest node id Offered is called with each cycle.
	last  int
	probe *phaseProbe

	offered, replies, ejects uint64
	onEjectNs                int64
}

func newTracedTraffic(inner noc.Traffic, nodes int) *tracedTraffic {
	return &tracedTraffic{inner: inner, last: nodes - 1}
}

func (t *tracedTraffic) Offered(node int, c sim.Cycle) []*flit.Packet {
	if t.probe != nil && node == 0 {
		t.probe.marks[markInjectStart] = nanotime()
	}
	ps := t.inner.Offered(node, c)
	t.offered += uint64(len(ps))
	if t.probe != nil && node == t.last {
		t.probe.marks[markInjectEnd] = nanotime()
	}
	return ps
}

func (t *tracedTraffic) OnEject(p *flit.Packet, c sim.Cycle) []*flit.Packet {
	t.ejects++
	if t.probe == nil {
		ps := t.inner.OnEject(p, c)
		t.replies += uint64(len(ps))
		return ps
	}
	t0 := nanotime()
	ps := t.inner.OnEject(p, c)
	t.onEjectNs += nanotime() - t0
	t.probe.reads += 2
	t.replies += uint64(len(ps))
	return ps
}

// attachProbe wires probe into n and its traffic wrapper t. The probe's
// hooks go around the ones between registers (the fault injector), so
// call it where the workload would otherwise register those.
func attachProbe(n *noc.Network, t *tracedTraffic, probe *phaseProbe, between func()) {
	n.AddHook(probe.hookStart)
	if between != nil {
		between()
	}
	n.AddHook(probe.hookEnd)
	t.probe = probe
}

// coreTotals sums every router's FT and load counters.
type coreTotals struct {
	flits, rcDup, va1Borrows, va2Retries, saBypass, saTransfers, xbSecondary, reroutes uint64
	routerCycles                                                                       uint64
}

func (c *coreTotals) add(n *noc.Network) {
	nodes := n.Topo().Nodes()
	for id := 0; id < nodes; id++ {
		k := n.Router(id).Counters
		c.flits += k.FlitsRouted
		c.rcDup += k.RCDuplicateUses
		c.va1Borrows += k.VA1Borrows
		c.va2Retries += k.VA2Retries
		c.saBypass += k.SABypassGrants
		c.saTransfers += k.SATransfers
		c.xbSecondary += k.XBSecondary
		c.reroutes += k.Reroutes
	}
	c.routerCycles += uint64(nodes) * uint64(n.Now())
}

// sub returns the counts accumulated since b was taken.
func (c coreTotals) sub(b coreTotals) coreTotals {
	return coreTotals{
		c.flits - b.flits, c.rcDup - b.rcDup, c.va1Borrows - b.va1Borrows, c.va2Retries - b.va2Retries,
		c.saBypass - b.saBypass, c.saTransfers - b.saTransfers, c.xbSecondary - b.xbSecondary,
		c.reroutes - b.reroutes, c.routerCycles - b.routerCycles,
	}
}

func (c *coreTotals) report(r *report) {
	r.layer("core.flits_routed", float64(c.flits), "count")
	r.layer("core.flits_per_router_cycle", float64(c.flits)/float64(max(c.routerCycles, 1)), "flits/rtr-cycle")
	r.layer("core.va1_borrows", float64(c.va1Borrows), "count")
	r.layer("core.va2_retries", float64(c.va2Retries), "count")
	r.layer("core.sa_bypass_grants", float64(c.saBypass), "count")
	r.layer("core.sa_transfers", float64(c.saTransfers), "count")
	r.layer("core.xb_secondary", float64(c.xbSecondary), "count")
	r.layer("core.rc_dup_uses", float64(c.rcDup), "count")
	r.layer("core.reroutes", float64(c.reroutes), "count")
}

// statTotals sums packet accounting over networks.
type statTotals struct {
	created, ejected, dropped, retransmits, duplicates, inFlight uint64
}

func (s *statTotals) add(st *stats.Collector) {
	s.created += st.Created()
	s.ejected += st.Ejected()
	s.dropped += st.Dropped()
	s.retransmits += st.Retransmits()
	s.duplicates += st.Duplicates()
	s.inFlight += st.InFlight()
}

// deliveryRatio is unique packets delivered over unique packets offered.
func (s *statTotals) deliveryRatio() float64 {
	return float64(s.ejected) / float64(max(s.created-s.retransmits, 1))
}

func (s *statTotals) report(r *report) {
	r.layer("stats.created", float64(s.created), "count")
	r.layer("stats.ejected", float64(s.ejected), "count")
	r.layer("stats.dropped", float64(s.dropped), "count")
	r.layer("stats.retransmits", float64(s.retransmits), "count")
	r.layer("stats.duplicates", float64(s.duplicates), "count")
}

// checkConservation records the packet-conservation check. The collector
// counts every packet created as delivered, dropped, suppressed as a
// duplicate or in flight, so those may not exceed the creations; and
// the unique creations and the deliveries must equal what the traffic
// wrapper saw from outside the network.
func checkConservation(r *report, s statTotals, offered, ejects uint64) {
	ok := s.created >= s.ejected+s.dropped+s.duplicates &&
		s.created-s.retransmits == offered && s.ejected == ejects
	r.check("packet_conservation", ok,
		"created %d = ejected %d + dropped %d + duplicates %d + in flight %d; wrapper offered %d, ejected %d (retransmits %d)",
		s.created, s.ejected, s.dropped, s.duplicates, s.inFlight, offered, ejects, s.retransmits)
}

// reportRuntime emits the runtime.* layer metrics for a job.
func reportRuntime(r *report, d runtimeSnap) {
	r.layer("runtime.allocs", float64(d.allocs), "count")
	r.layer("runtime.gc_cycles", float64(d.gcCycles), "count")
	r.layer("runtime.gc_pause_s", d.pauseS, "s")
}
