package noc_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/fault"
	"gonoc/internal/noc"
	"gonoc/internal/obs"
	"gonoc/internal/router"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_trajectories.json from the current code")

const (
	goldenFile   = "testdata/golden_trajectories.json"
	goldenCycles = 3000
	goldenEvery  = 250
)

// goldenPoint is one checkpoint of a trajectory: the network's canonical
// state hash, the statistics summary, the summed router mechanism
// counters and, when the run observes, the observer's counters and
// gauges summed per kind.
type goldenPoint struct {
	Cycle     sim.Cycle `json:"cycle"`
	StateHash string    `json:"state_hash"`
	Summary   string    `json:"summary"`
	Counters  string    `json:"counters"`
	Obs       string    `json:"obs,omitempty"`
}

type goldenTrajectory struct {
	Name    string        `json:"name"`
	Workers int           `json:"workers"`
	Points  []goldenPoint `json:"points"`
}

// goldenConfig builds one network of the matrix. It returns the
// network and its observer (nil when the run does not observe), and
// fails the test if the configuration did not exercise what it is in
// the matrix for.
type goldenConfig struct {
	name  string
	build func(t *testing.T, workers int) (*noc.Network, *obs.Observer)
	// check runs after the last checkpoint.
	check func(t *testing.T, n *noc.Network)
}

func goldenRouter() router.Config {
	rc := router.DefaultConfig()
	rc.FaultTolerant = true
	return rc
}

func goldenUniform(nodes int, rate float64) *traffic.Synthetic {
	return traffic.NewSynthetic(nodes, rate, traffic.Uniform(nodes), traffic.Bimodal(1, 5, 0.6), 2014)
}

var goldenMatrix = []goldenConfig{
	{
		// Protected 8×8 mesh under pipeline-stage faults: three static
		// SA stage-1 arbiter faults put their ports into bypass from
		// cycle 0, and a safe-only random injector adds faults in every
		// stage as the run goes.
		name: "mesh8-ft-injector",
		build: func(t *testing.T, workers int) (*noc.Network, *obs.Observer) {
			n := noc.MustNew(noc.Config{Width: 8, Height: 8, Router: goldenRouter(), Warmup: 200, Workers: workers},
				goldenUniform(64, 0.015))
			for _, spec := range []string{"9:sa1:e", "27:sa1:l", "36:sa1:w"} {
				id, site, err := fault.ParseInjection(spec)
				if err != nil {
					t.Fatal(err)
				}
				fault.Apply(n.Router(id), site, true)
			}
			fault.NewInjector(n, 1500, 7, true)
			return n, nil
		},
		check: func(t *testing.T, n *noc.Network) {
			var bypass, transfers uint64
			for id := 0; id < n.Topo().Nodes(); id++ {
				r := n.Router(id)
				for p := 0; p < r.Config().Ports; p++ {
					if r.SA1Fault(topology.Port(p)) && !r.SA1BypassFault(topology.Port(p)) {
						bypass++
					}
				}
				transfers += r.Counters.SATransfers
			}
			if bypass == 0 || transfers == 0 {
				t.Fatalf("no SA stage-1 bypass coverage: %d bypass ports, %d transfers", bypass, transfers)
			}
		},
	},
	{
		// Two dead links with NI retransmission: fault-aware routing
		// tables, link drops and the serial link commit, with the
		// observability counters and stall attribution attached.
		name: "mesh8-deadlinks-retx",
		build: func(t *testing.T, workers int) (*noc.Network, *obs.Observer) {
			o := obs.New(0)
			rc := goldenRouter()
			rc.Obs = o
			n := noc.MustNew(noc.Config{
				Width: 8, Height: 8, Router: rc, Warmup: 200, Workers: workers,
				Retx: noc.RetxConfig{Timeout: 600, MaxRetries: 4},
			}, goldenUniform(64, 0.01))
			n.AddHook(func(c sim.Cycle) {
				var err error
				switch c {
				case 300:
					err = n.SetLinkFault(27, topology.East, true)
				case 700:
					err = n.SetLinkFault(36, topology.North, true)
				}
				if err != nil {
					t.Errorf("link fault: %v", err)
				}
			})
			return n, o
		},
		check: func(t *testing.T, n *noc.Network) {
			if n.Stats().Dropped() == 0 || n.Stats().Retransmits() == 0 {
				t.Fatalf("dead links dropped %d packets, %d retransmissions: want both > 0",
					n.Stats().Dropped(), n.Stats().Retransmits())
			}
		},
	},
	{
		name: "torus8",
		build: func(t *testing.T, workers int) (*noc.Network, *obs.Observer) {
			n := noc.MustNew(noc.Config{Width: 8, Height: 8, Topo: "torus", Router: goldenRouter(), Warmup: 200, Workers: workers},
				goldenUniform(64, 0.02))
			return n, nil
		},
	},
}

// obsTotals sums the observer's series per kind, counters and gauges
// apart, in a stable text form.
func obsTotals(o *obs.Observer) string {
	var counters, gauges [obs.NumKinds]int64
	for _, s := range o.Metrics.Snapshot() {
		if s.IsGauge {
			gauges[s.Key.Kind] += s.Value
		} else {
			counters[s.Key.Kind] += s.Value
		}
	}
	var b strings.Builder
	for k := 0; k < obs.NumKinds; k++ {
		if counters[k] != 0 || gauges[k] != 0 {
			fmt.Fprintf(&b, "%s %d/%d\n", obs.Kind(k), counters[k], gauges[k])
		}
	}
	return b.String()
}

func runGolden(t *testing.T, gc goldenConfig, workers int) goldenTrajectory {
	t.Helper()
	n, o := gc.build(t, workers)
	defer n.Close()
	tr := goldenTrajectory{Name: gc.name, Workers: workers}
	for n.Now() < goldenCycles {
		n.Run(goldenEvery)
		var ctr core.Counters
		for id := 0; id < n.Topo().Nodes(); id++ {
			c := n.Router(id).Counters
			ctr.FlitsRouted += c.FlitsRouted
			ctr.RCDuplicateUses += c.RCDuplicateUses
			ctr.VA1Borrows += c.VA1Borrows
			ctr.VA1BorrowStalls += c.VA1BorrowStalls
			ctr.VA2Retries += c.VA2Retries
			ctr.SABypassGrants += c.SABypassGrants
			ctr.SATransfers += c.SATransfers
			ctr.XBSecondary += c.XBSecondary
			ctr.Reroutes += c.Reroutes
		}
		p := goldenPoint{
			Cycle:     n.Now(),
			StateHash: fmt.Sprintf("%016x", n.StateHash()),
			Summary:   n.Stats().Summary(),
			Counters:  fmt.Sprintf("%+v", ctr),
		}
		if o != nil {
			p.Obs = obsTotals(o)
		}
		tr.Points = append(tr.Points, p)
	}
	if gc.check != nil {
		gc.check(t, n)
	}
	return tr
}

// TestGoldenTrajectories pins the simulator's behaviour across versions:
// it recomputes, every 250 cycles for 3000 cycles, the state hash and
// statistics of a matrix of 8×8 networks (protected mesh under random
// pipeline-stage faults with SA stage-1 bypass ports, mesh with two dead
// links and NI retransmission, torus) at Workers 1 and 4, and diffs them
// against the checked-in trajectories. A deliberate behaviour change
// regenerates the file with
//
//	go test ./internal/noc -run TestGoldenTrajectories -update
//
// and says in CHANGES.md why behaviour moved.
func TestGoldenTrajectories(t *testing.T) {
	var got []goldenTrajectory
	for _, gc := range goldenMatrix {
		for _, w := range []int{1, 4} {
			got = append(got, runGolden(t, gc, w))
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenFile), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want []goldenTrajectory
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d trajectories checked in, %d computed", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Name != g.Name || w.Workers != g.Workers || len(w.Points) != len(g.Points) {
			t.Fatalf("trajectory %d: checked in %s/w%d with %d points, computed %s/w%d with %d points",
				i, w.Name, w.Workers, len(w.Points), g.Name, g.Workers, len(g.Points))
		}
		for j := range w.Points {
			if w.Points[j] != g.Points[j] {
				t.Errorf("%s/w%d diverged at cycle %d:\n--- checked in ---\n%+v\n--- computed ---\n%+v",
					w.Name, w.Workers, w.Points[j].Cycle, w.Points[j], g.Points[j])
				break
			}
		}
	}
}
