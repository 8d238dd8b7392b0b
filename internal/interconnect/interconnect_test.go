package interconnect

import (
	"testing"
	"testing/quick"
)

func TestLinkHierarchy(t *testing.T) {
	// SPI is the cheapest and slowest on-PCB option; QPI the fastest.
	if SPI.Bandwidth >= HyperTransport.Bandwidth {
		t.Error("SPI should be slower than HyperTransport")
	}
	if HyperTransport.Bandwidth >= QPI.Bandwidth {
		t.Error("HyperTransport should be slower than QPI")
	}
	if SPI.Pins != 4 {
		t.Errorf("SPI is a 4-pin interface, got %d pins", SPI.Pins)
	}
	// On-chip NoC hops are nearly free versus off-chip links — the
	// saving the CNN cloud gets from bigger chips.
	if NoC.Power >= HyperTransport.Power/10 {
		t.Error("NoC hop power should be tiny versus HyperTransport")
	}
	if NoC.Pins != 0 {
		t.Error("NoC uses no package pins")
	}
}

func TestOffPCBLinks(t *testing.T) {
	if GigE1.Bandwidth >= GigE10.Bandwidth || GigE10.Bandwidth >= GigE40.Bandwidth {
		t.Error("GigE family bandwidth ordering broken")
	}
	if GigE10.BoardCost <= GigE1.BoardCost {
		t.Error("10 GigE should cost more than 1 GigE")
	}
}

func TestNetworkAggregates(t *testing.T) {
	n := Network{
		OnPCB:      SPI,
		OnPCBLinks: 40,
		OffPCB:     GigE10,
		OffLinks:   2,
		Control:    ControlFPGA,
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	wantCost := ControlFPGA.Cost + 40*SPI.BoardCost + 2*GigE10.BoardCost
	if got := n.Cost(); got != wantCost {
		t.Errorf("Cost = %v, want %v", got, wantCost)
	}
	if got := n.PerChipPins(); got != 4 {
		t.Errorf("PerChipPins = %d, want 4", got)
	}
	if got := n.PerChipArea(); got != SPI.ASICArea {
		t.Errorf("PerChipArea = %v", got)
	}
}

func TestNetworkValidate(t *testing.T) {
	n := Network{OnPCBLinks: -1}
	if err := n.Validate(); err == nil {
		t.Error("negative link count should fail")
	}
}

func TestRequiredOffLinks(t *testing.T) {
	cases := []struct {
		link   Link
		demand float64
		want   int
	}{
		{GigE10, 0, 0},
		{GigE10, 1.0, 1},
		{GigE10, 1.25, 1},
		{GigE10, 1.26, 2},
		{GigE10, 2.5, 2},
		{NoneOff, 5, 0},
	}
	for _, c := range cases {
		if got := RequiredOffLinks(c.link, c.demand); got != c.want {
			t.Errorf("RequiredOffLinks(%s, %v) = %d, want %d", c.link.Name, c.demand, got, c.want)
		}
	}
}

func TestRequiredOffLinksCoverDemandProperty(t *testing.T) {
	f := func(a uint16) bool {
		demand := float64(a) / 100
		n := RequiredOffLinks(GigE10, demand)
		return float64(n)*GigE10.Bandwidth >= demand-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestControlProcessorOptions(t *testing.T) {
	if Microcontroller.Cost >= ControlFPGA.Cost || ControlFPGA.Cost >= ControlCPU.Cost {
		t.Error("control processor cost ordering: uC < FPGA < CPU")
	}
}
