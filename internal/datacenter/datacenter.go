// Package datacenter models the machine-room level of an ASIC Cloud:
// 42U racks, per-rack power and cooling provisioning, and scale-out
// sizing ("how many servers to meet a world-wide demand"). The paper
// uses "a modified version of the standard warehouse scale computer
// model from Barroso et al", assuming 30 °C inlet air and noting that
// modern ASIC servers are power-dense enough that "racks are generally
// not fully populated".
package datacenter

import (
	"fmt"
	"math"

	"asiccloud/internal/units"
)

// Rack describes one rack's capacity.
type Rack struct {
	// Units is the rack height in U (42 in the paper).
	Units int
	// ServerUnits is the height of one server (1U servers throughout).
	ServerUnits int
	// PowerBudget is the per-rack power/cooling provisioning in watts.
	PowerBudget float64
	// InletTempC is the cold-aisle air temperature.
	InletTempC float64
}

// DefaultRack is a 42U rack provisioned at 12 kW — a typical
// high-density allocation.
func DefaultRack() Rack {
	return Rack{Units: 42, ServerUnits: 1, PowerBudget: 12000, InletTempC: 30}
}

// Validate checks rack parameters.
func (r Rack) Validate() error {
	if r.Units <= 0 || r.ServerUnits <= 0 {
		return fmt.Errorf("datacenter: rack units must be positive")
	}
	if r.ServerUnits > r.Units {
		return fmt.Errorf("datacenter: server taller than the rack")
	}
	if r.PowerBudget <= 0 {
		return fmt.Errorf("datacenter: rack power budget must be positive")
	}
	return nil
}

// ServersPerRack returns how many servers of the given wall power fit,
// honoring both the space and the power/cooling budgets. "Having this
// high density makes it easier to allocate the number of servers to a
// rack according to the data center's per-rack power and cooling targets
// without worrying about space constraints."
func (r Rack) ServersPerRack(serverWallW float64) (int, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if serverWallW <= 0 {
		return 0, fmt.Errorf("datacenter: server power must be positive")
	}
	bySpace := r.Units / r.ServerUnits
	byPower := int(r.PowerBudget / serverWallW)
	if byPower < bySpace {
		return byPower, nil
	}
	return bySpace, nil
}

// Deployment sizes a machine room for an aggregate performance demand.
type Deployment struct {
	Servers     int
	Racks       int
	TotalPowerW float64
	TotalPerf   float64 // same unit as perfPerServer
}

// Plan computes the fleet needed for the demanded throughput — e.g. the
// paper sizes world-wide Litecoin capacity at "1,248 servers".
func Plan(rack Rack, perfPerServer, serverWallW, demand float64) (Deployment, error) {
	if perfPerServer <= 0 {
		return Deployment{}, fmt.Errorf("datacenter: server performance must be positive")
	}
	if demand <= 0 {
		return Deployment{}, fmt.Errorf("datacenter: demand must be positive")
	}
	perRack, err := rack.ServersPerRack(serverWallW)
	if err != nil {
		return Deployment{}, err
	}
	if perRack == 0 {
		return Deployment{}, fmt.Errorf("datacenter: server of %.0f W exceeds the %.0f W rack budget",
			serverWallW, rack.PowerBudget)
	}
	servers := int(math.Ceil(demand / perfPerServer))
	racks := (servers + perRack - 1) / perRack
	return Deployment{
		Servers:     servers,
		Racks:       racks,
		TotalPowerW: float64(servers) * serverWallW,
		TotalPerf:   float64(servers) * perfPerServer,
	}, nil
}

// MegawattFacilities describes the paper's observed deployments: "today
// there are 20 megawatt facilities in existence, and 40 megawatt
// facilities are under construction", with a global ASIC Cloud budget
// estimated at 300-500 MW.
func MegawattFacilities(d Deployment) float64 {
	return units.WToMW(d.TotalPowerW)
}
