package datacenter

import (
	"testing"
	"testing/quick"
)

func TestRackValidate(t *testing.T) {
	if err := DefaultRack().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultRack()
	bad.Units = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero units should fail")
	}
	bad = DefaultRack()
	bad.ServerUnits = 43
	if err := bad.Validate(); err == nil {
		t.Error("server taller than rack should fail")
	}
	bad = DefaultRack()
	bad.PowerBudget = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero power budget should fail")
	}
}

func TestServersPerRackPowerLimited(t *testing.T) {
	r := DefaultRack()
	// A 3.7 kW Bitcoin server: 12 kW / 3.7 kW = 3 servers, far below the
	// 42 slots — "racks are generally not fully populated".
	n, err := r.ServersPerRack(3731)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("servers per rack = %d, want 3", n)
	}
	// A 200 W server fills the rack on space.
	n, err = r.ServersPerRack(200)
	if err != nil {
		t.Fatal(err)
	}
	if n != 42 {
		t.Errorf("servers per rack = %d, want 42", n)
	}
	if _, err := r.ServersPerRack(0); err == nil {
		t.Error("zero-power server should fail")
	}
}

func TestPlanLitecoinWorldCapacity(t *testing.T) {
	// Paper §8: "The current world-wide Litecoin mining capacity is
	// 1,452,000 MH/s, so 1,248 servers would be sufficient" at 1,164
	// MH/s per server.
	d, err := Plan(DefaultRack(), 1164, 3401, 1452000)
	if err != nil {
		t.Fatal(err)
	}
	if d.Servers != 1248 {
		t.Errorf("servers = %d, want 1248 (paper §8)", d.Servers)
	}
	if d.TotalPerf < 1452000 {
		t.Errorf("deployment under-provisioned: %v", d.TotalPerf)
	}
	// 1248 servers at 3.4 kW ≈ 4.2 MW.
	if mw := MegawattFacilities(d); mw < 4 || mw > 4.5 {
		t.Errorf("deployment = %.1f MW, want ~4.2", mw)
	}
	if d.Racks < d.Servers/42 {
		t.Errorf("rack count %d too small for %d servers", d.Racks, d.Servers)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(DefaultRack(), 0, 100, 1000); err == nil {
		t.Error("zero per-server perf should fail")
	}
	if _, err := Plan(DefaultRack(), 10, 100, 0); err == nil {
		t.Error("zero demand should fail")
	}
	if _, err := Plan(DefaultRack(), 10, 20000, 100); err == nil {
		t.Error("server exceeding the rack budget should fail")
	}
}

func TestPlanCoversDemandProperty(t *testing.T) {
	r := DefaultRack()
	f := func(a, b uint16) bool {
		perf := 1 + float64(a%1000)
		demand := 1 + float64(b)*10
		d, err := Plan(r, perf, 500, demand)
		if err != nil {
			return false
		}
		return d.TotalPerf >= demand && d.TotalPerf < demand+perf &&
			d.Racks*24 >= d.Servers // 500 W → 24 per rack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSitesCatalog(t *testing.T) {
	sites := Sites()
	if len(sites) < 4 {
		t.Fatalf("catalog has %d sites", len(sites))
	}
	for _, s := range sites {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	iceland, retail := sites[0], sites[len(sites)-1]
	if iceland.Name != "Iceland (geothermal/hydro)" || retail.Name != "US retail colo" {
		t.Fatalf("catalog order changed: first %q, last %q", iceland.Name, retail.Name)
	}
	// The paper's siting argument in one number: Iceland's energy price
	// per wall watt (electricity price × PUE) is a small fraction of
	// retail colo's.
	ratio := (iceland.ElectricityPerKWh * iceland.PUE) / (retail.ElectricityPerKWh * retail.PUE)
	if ratio > 0.25 {
		t.Errorf("Iceland/retail opex ratio = %.2f, want < 0.25", ratio)
	}
	// Cool climates also deliver colder inlet air.
	if iceland.InletTempC >= retail.InletTempC {
		t.Error("Iceland should offer cooler inlet air")
	}
}

func TestSiteValidateRejects(t *testing.T) {
	bad := []Site{
		{Name: "a", ElectricityPerKWh: 0, PUE: 1.1, InletTempC: 20, DCCapexPerWattYear: 1},
		{Name: "b", ElectricityPerKWh: 0.05, PUE: 0.9, InletTempC: 20, DCCapexPerWattYear: 1},
		{Name: "c", ElectricityPerKWh: 0.05, PUE: 1.1, InletTempC: 80, DCCapexPerWattYear: 1},
		{Name: "d", ElectricityPerKWh: 0.05, PUE: 1.1, InletTempC: 20, DCCapexPerWattYear: 0},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("site %s should fail validation", s.Name)
		}
	}
}
