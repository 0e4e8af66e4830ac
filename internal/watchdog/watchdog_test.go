package watchdog

import (
	"bytes"
	"strings"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

func protCfg(ft bool) noc.Config {
	rc := router.DefaultConfig()
	rc.FaultTolerant = ft
	rc.Classes = 1
	return noc.Config{Width: 4, Height: 4, Router: rc, Warmup: 0}
}

func lightTraffic(seed uint64) *traffic.Synthetic {
	return traffic.NewSynthetic(16, 0.01, traffic.Uniform(16), traffic.FixedSize(2), seed)
}

func TestNoFalsePositivesAtLightLoad(t *testing.T) {
	n := noc.MustNew(protCfg(true), lightTraffic(1))
	m := New(n, 200)
	n.Run(10000)
	if s := m.Suspects(); len(s) != 0 {
		t.Fatalf("false positives on a healthy network: %v", s[0])
	}
}

func TestDetectsDeadRCPort(t *testing.T) {
	// Both RC copies of router 5's West port dead: heads entering that
	// port stick in Routing; the watchdog must localize RC at (5, W).
	n := noc.MustNew(protCfg(true), lightTraffic(2))
	n.Router(5).SetRCFault(topology.West, 0, true)
	n.Router(5).SetRCFault(topology.West, 1, true)
	m := New(n, 200)
	n.Run(15000)
	found := false
	for _, s := range m.SuspectsAt(5) {
		if s.Port == topology.West && s.Stage == core.StageRC {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead RC port not localized; suspects: %v", m.Suspects())
	}
}

func TestDetectsBaselineVAFault(t *testing.T) {
	// Baseline router: one VA arbiter-set fault blocks that VC forever;
	// the watchdog should flag the VA stage on that port.
	n := noc.MustNew(protCfg(false), lightTraffic(3))
	n.Router(9).SetVA1Fault(topology.North, 0, true)
	m := New(n, 200)
	n.Run(20000)
	found := false
	for _, s := range m.SuspectsAt(9) {
		if s.Port == topology.North && s.Stage == core.StageVA {
			found = true
		}
	}
	if !found {
		t.Fatalf("baseline VA fault not localized; suspects at 9: %v", m.SuspectsAt(9))
	}
}

func TestDetectsBaselineSwitchFault(t *testing.T) {
	n := noc.MustNew(protCfg(false), lightTraffic(4))
	n.Router(6).SetSA1Fault(topology.East, true)
	m := New(n, 200)
	n.Run(20000)
	found := false
	for _, s := range m.SuspectsAt(6) {
		if s.Port == topology.East && s.Stage == core.StageSA {
			found = true
		}
	}
	if !found {
		t.Fatalf("baseline SA fault not localized; suspects at 6: %v", m.SuspectsAt(6))
	}
}

func TestProtectedMasksFaultsFromWatchdog(t *testing.T) {
	// The protected router routes around a tolerable fault, so the
	// watchdog — which observes symptoms, not components — stays quiet.
	n := noc.MustNew(protCfg(true), lightTraffic(5))
	n.Router(5).SetRCFault(topology.West, 0, true)
	n.Router(5).SetSA1Fault(topology.East, true)
	n.Router(5).SetXBFault(topology.North, true)
	m := New(n, 300)
	n.Run(15000)
	if s := m.Suspects(); len(s) != 0 {
		t.Fatalf("watchdog fired on masked faults: %v", s[0])
	}
}

func TestReportOncePerStall(t *testing.T) {
	n := noc.MustNew(protCfg(true), lightTraffic(6))
	n.Router(5).SetRCFault(topology.West, 0, true)
	n.Router(5).SetRCFault(topology.West, 1, true)
	m := New(n, 100)
	n.Run(20000)
	// One stuck VC must produce exactly one report, not one per cycle.
	perVC := map[int]int{}
	for _, s := range m.SuspectsAt(5) {
		if s.Port == topology.West {
			perVC[s.VC]++
		}
	}
	for v, c := range perVC {
		if c != 1 {
			t.Fatalf("VC %d reported %d times", v, c)
		}
	}
	if len(perVC) == 0 {
		t.Fatal("nothing detected")
	}
	m.Clear()
	if len(m.Suspects()) != 0 {
		t.Fatal("Clear did not clear")
	}
}

func TestSuspectString(t *testing.T) {
	s := Suspect{Router: 3, Port: topology.East, VC: 1, Stage: core.StageVA, Since: 10, Detected: 210}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTripTriggersFlightDump(t *testing.T) {
	// A watchdog trip is an anomaly: it must capture a non-empty,
	// replayable flight-recorder dump naming the suspect in its reason.
	o := obs.New(0)
	o.Flight = obs.NewFlightRecorder(16, 64)
	cfg := protCfg(true)
	cfg.Router.Obs = o
	n := noc.MustNew(cfg, lightTraffic(7))
	n.Router(5).SetRCFault(topology.West, 0, true)
	n.Router(5).SetRCFault(topology.West, 1, true)
	m := New(n, 200)
	n.Run(15000)
	if len(m.Suspects()) == 0 {
		t.Fatal("watchdog never tripped")
	}
	dumps := o.Flight.Dumps()
	if len(dumps) == 0 {
		t.Fatal("trip captured no flight dump")
	}
	d := dumps[0]
	if len(d.Events) == 0 {
		t.Fatal("flight dump is empty")
	}
	if !strings.Contains(d.Reason, "watchdog") || !strings.Contains(d.Reason, "router 5") {
		t.Fatalf("dump reason %q does not name the suspect", d.Reason)
	}
	// Replayable: the dump survives serialization and formats to a
	// cycle-grouped transcript.
	var buf bytes.Buffer
	if err := obs.WriteDumps(&buf, dumps); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadDumps(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(dumps) || len(back[0].Events) != len(d.Events) {
		t.Fatalf("round trip lost events: %d dumps, %d events", len(back), len(back[0].Events))
	}
	if txt := obs.FormatDump(back[0]); !strings.Contains(txt, d.Reason) {
		t.Fatalf("formatted replay missing reason:\n%s", txt)
	}
}
