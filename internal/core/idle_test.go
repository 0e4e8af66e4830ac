package core

import (
	"bytes"
	"testing"

	"gonoc/internal/flit"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/vc"
)

// settle steps the bench until no credit is waiting to be echoed, so the
// router's input latches are empty before the next Tick.
func (b *bench) settle() {
	for i := 0; i < 20 && len(b.pendingCredits) > 0; i++ {
		b.step()
	}
	if len(b.pendingCredits) > 0 {
		b.t.Fatal("bench did not settle")
	}
}

// requireIdentityTicks ticks the router directly and fails unless every
// tick leaves its canonical state and counters unchanged and emits
// nothing.
func requireIdentityTicks(t *testing.T, r *Router, from sim.Cycle, ticks int) {
	t.Helper()
	want := r.AppendCanonical(nil)
	ctr := r.Counters
	for i := 0; i < ticks; i++ {
		r.Tick(from + sim.Cycle(i))
		if n := len(r.TakeOutFlits()) + len(r.TakeOutCredits()) + len(r.TakeDropped()); n != 0 {
			t.Fatalf("idle tick %d emitted %d outputs", i, n)
		}
		if got := r.AppendCanonical(nil); !bytes.Equal(got, want) {
			t.Fatalf("idle tick %d changed the canonical state", i)
		}
		if r.Counters != ctr {
			t.Fatalf("idle tick %d changed the counters: %+v -> %+v", i, ctr, r.Counters)
		}
	}
}

// TestIdleTickIsIdentity checks Router.Idle's contract on routers that
// are empty in different ways: with Idle true, Tick changes nothing.
func TestIdleTickIsIdentity(t *testing.T) {
	cases := []struct {
		name  string
		setup func(b *bench)
	}{
		{"fresh-protected", func(b *bench) {}},
		{"drained-after-packets", func(b *bench) {
			b.sendPacket(topology.West, 0, eastOf(b), 4)
			b.sendPacket(topology.North, 1, eastOf(b), 2)
			b.run(10)
		}},
		{"mid-packet-active-vc-empty", func(b *bench) {
			// Head and one body flit leave; the tail has not arrived,
			// so West VC0 stays Active with an empty buffer.
			pkt := &flit.Packet{ID: 1, Src: 4, Dst: eastOf(b), Size: 3}
			fs := flit.Segment(pkt)
			b.inject(topology.West, 0, fs[0])
			b.step()
			b.inject(topology.West, 0, fs[1])
			b.run(8)
			if q := b.r.InputVC(topology.West, 0); q.G != vc.Active || !q.Empty() {
				b.t.Fatalf("setup: West VC0 is %v, want an empty Active VC", q)
			}
		}},
		{"non-bypass-faults", func(b *bench) {
			b.r.SetRCFault(topology.West, 0, true)
			b.r.SetVA1Fault(topology.North, 1, true)
			b.r.SetVA2Fault(topology.East, 2, true)
			b.r.SetSA2Fault(topology.South, true)
			b.r.SetXBFault(topology.East, true)
			b.sendPacket(topology.West, 0, eastOf(b), 3)
			b.run(10)
		}},
		{"sa1-arbiter-and-bypass-dead", func(b *bench) {
			// With both SA stage-1 paths faulty the port grants nothing
			// and nothing rotates.
			b.r.SetSA1Fault(topology.West, true)
			b.r.SetSA1BypassFault(topology.West, true)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBench(t, ftCfg())
			tc.setup(b)
			b.settle()
			if !b.r.Idle() {
				t.Fatal("Idle() = false on an empty router")
			}
			requireIdentityTicks(t, b.r, b.cycle, 2*b.r.cfg.BypassRotatePeriod+3)
		})
	}
}

// TestIdleFalse lists the states an Idle router must not be in: each is
// one a Tick can act on, even when no flit is buffered.
func TestIdleFalse(t *testing.T) {
	head := func() *flit.Flit {
		return flit.Segment(&flit.Packet{ID: 9, Src: 4, Dst: 5, Size: 1})[0]
	}
	cases := []struct {
		name  string
		setup func(r *Router)
		// moves marks states where a Tick changes the canonical state
		// although no VC buffers a flit: the reason they are excluded.
		moves bool
	}{
		{"sa1-bypass-port", func(r *Router) { r.SetSA1Fault(topology.West, true) }, true},
		{"held-adoption", func(r *Router) { r.saAdopted[topology.West] = 1 }, false},
		{"held-adoption-active-vc-empty-in-bypass", func(r *Router) {
			r.SetSA1Fault(topology.West, true)
			q := r.InputVC(topology.West, 1)
			q.G, q.R, q.OutVC = vc.Active, topology.East, 0
			r.outVCBusy[topology.East][0] = true
			r.saAdopted[topology.West] = 1
		}, true},
		{"flit-pushed-into-vc", func(r *Router) {
			q := r.InputVC(topology.West, 0)
			q.Push(head())
			q.G = vc.Routing
		}, true},
		{"latched-flit", func(r *Router) {
			r.AcceptFlit(router.InFlit{In: topology.West, VC: 0, F: head()})
		}, true},
		{"latched-credit", func(r *Router) {
			r.credits[topology.East][0]--
			r.AcceptCredit(CreditIn{Out: topology.East, VC: 0})
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := MustNew(4, topology.NewMesh(3, 3), ftCfg())
			tc.setup(r)
			if r.Idle() {
				t.Fatal("Idle() = true")
			}
			if !tc.moves {
				return
			}
			before := r.AppendCanonical(nil)
			r.Tick(0)
			if bytes.Equal(before, r.AppendCanonical(nil)) {
				t.Fatal("Tick left the state unchanged: the case does not show why it is excluded")
			}
		})
	}
}
