//go:build nocassert

package noc

import (
	"fmt"
	"strings"
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/traffic"
)

// TestAssertFailureCapturesFlightDump sabotages flow control on purpose
// (a dropped credit permanently underfunds one VC) and checks the
// nocassert layer's crash path: the violation panics, the panic message
// points at the captured dump, and the dump is non-empty and replayable.
func TestAssertFailureCapturesFlightDump(t *testing.T) {
	o := obs.New(0)
	o.Flight = obs.NewFlightRecorder(16, 64)
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	rc.Obs = o
	src := traffic.NewSynthetic(16, 0.05, traffic.Uniform(16), traffic.FixedSize(3), 21)
	src.StopAt(2000)
	n := MustNew(Config{Width: 4, Height: 4, Router: rc}, src)
	defer n.Close()
	sabotaged := false
	n.AddHook(func(c sim.Cycle) {
		if !sabotaged && c > 50 {
			sabotaged = n.DropPendingCredit(5)
		}
	})
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		n.Run(5000)
	}()
	if msg == "" {
		t.Fatal("dropped credit went undetected by the assertion layer")
	}
	if !strings.Contains(msg, "nocassert") {
		t.Fatalf("panic is not an assertion failure: %q", msg)
	}
	if !strings.Contains(msg, "flight-recorder dump captured") {
		t.Fatalf("panic does not point at the flight dump: %q", msg)
	}
	dumps := o.Flight.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("recorder holds %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if len(d.Events) == 0 {
		t.Fatal("flight dump is empty")
	}
	if !strings.Contains(d.Reason, "nocassert") {
		t.Fatalf("dump reason %q does not carry the violation", d.Reason)
	}
	if txt := obs.FormatDump(d); !strings.Contains(txt, "cycle") {
		t.Fatalf("dump does not format to a replay transcript:\n%s", txt)
	}
}
