package core

import (
	"testing"

	"asiccloud/internal/apps/bitcoin"
	"asiccloud/internal/apps/litecoin"
	"asiccloud/internal/apps/xcode"
	"asiccloud/internal/server"
	"asiccloud/internal/tco"
)

// Metamorphic relations: how the answer must move when one input
// moves. Byte-identity pins what the model computes; these relations
// follow from its structure, so a failure is a bug in the model, not a
// reason to weaken the relation.

// TestHotterInletNeverAddsFeasibleDesign: raising the machine-room
// inlet temperature only removes junction headroom, so across inlets of
// 15 to 45 °C no sweep gains a feasible configuration and the TCO
// optimum never gets cheaper. The sink search maximizes the headroom
// over the worst junction coefficient, so its choice of sink does not
// depend on the inlet, and the feasible sets nest. Stacked bitcoin,
// litecoin and XCode at one and four DRAMs per ASIC share one engine,
// as the studies' sweeps do; the plan caches key on the inlet.
func TestHotterInletNeverAddsFeasibleDesign(t *testing.T) {
	xcodeBase, err := xcode.ServerConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	model := tco.Default()
	eng := NewEngine(nil)
	eng.DiscardPoints = true
	for _, tc := range []struct {
		app   string
		sweep Sweep
	}{
		{"bitcoin-stacked", Sweep{Base: server.Default(bitcoin.RCA()), Stacked: true}},
		{"litecoin", Sweep{Base: server.Default(litecoin.RCA())}},
		{"xcode", Sweep{Base: xcodeBase, DRAMPerASIC: []int{1, 4}}},
	} {
		var prev Result
		var prevInlet float64
		for inlet := 15.0; inlet <= 45; inlet += 5 {
			s := tc.sweep
			s.Base.InletTempC = inlet
			res, err := eng.Explore(s, model)
			if err != nil {
				t.Fatalf("%s at %g °C: %v", tc.app, inlet, err)
			}
			if res.Pruned.Feasible == 0 {
				t.Fatalf("%s at %g °C: no feasible configuration; the relation needs an optimum at every inlet", tc.app, inlet)
			}
			if inlet > 15 {
				if res.Pruned.Feasible > prev.Pruned.Feasible {
					t.Errorf("%s: inlet %g → %g °C raises the feasible configurations from %d to %d",
						tc.app, prevInlet, inlet, prev.Pruned.Feasible, res.Pruned.Feasible)
				}
				if was, now := prev.TCOOptimal.TCOPerOp(), res.TCOOptimal.TCOPerOp(); now < was {
					t.Errorf("%s: inlet %g → %g °C lowers the TCO optimum's TCO per op from %v to %v",
						tc.app, prevInlet, inlet, was, now)
				}
			}
			t.Logf("%s at %g °C: %d feasible, TCO optimum %v per op",
				tc.app, inlet, res.Pruned.Feasible, res.TCOOptimal.TCOPerOp())
			prev, prevInlet = res, inlet
		}
	}
}
