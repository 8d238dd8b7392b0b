// Package interconnect models the communication fabric of an ASIC Cloud
// server: on-PCB links between the control processor and the ASICs (SPI,
// HyperTransport, RapidIO, QPI), off-PCB interfaces (PCIe, 1/10/40 GigE,
// SL3 serial links), and on-ASIC network-on-chip links between RCAs
// (paper §5, Figure 2).
package interconnect

import "fmt"

// Link is one interconnect technology with its per-endpoint costs.
type Link struct {
	Name      string
	Bandwidth float64 // GB/s per link, per direction
	// ASICArea is the PHY+controller area per endpoint on the ASIC (mm²).
	ASICArea float64
	// Power per endpoint (W). Interface PHYs do not voltage scale.
	Power float64
	// Pins per endpoint on the package.
	Pins int
	// BoardCost is the per-link PCB/connector cost share in dollars.
	BoardCost float64
}

// On-PCB link technologies the paper lists as candidates for the control
// network ("the on-PCB network could be as simple as a 4-pin SPI
// interface, or it could be high-bandwidth HyperTransport, RapidIO or QPI
// links").
var (
	SPI = Link{Name: "SPI", Bandwidth: 0.006, ASICArea: 0.05, Power: 0.01, Pins: 4, BoardCost: 0.05}
	// HyperTransport: a 16-bit 3.2 GT/s HT3 link, the inter-chip fabric
	// of the DaDianNao CNN system.
	HyperTransport = Link{Name: "HyperTransport", Bandwidth: 12.8, ASICArea: 3.5, Power: 2.4, Pins: 76, BoardCost: 1.5}
	RapidIO        = Link{Name: "RapidIO", Bandwidth: 5.0, ASICArea: 2.4, Power: 1.6, Pins: 36, BoardCost: 1.0}
	QPI            = Link{Name: "QPI", Bandwidth: 19.2, ASICArea: 4.5, Power: 3.1, Pins: 84, BoardCost: 2.0}
	// NoC is an on-die mesh hop between co-located RCAs: nearly free
	// relative to off-chip links — the saving the CNN cloud harvests by
	// integrating more RCAs per chip.
	NoC = Link{Name: "on-chip NoC", Bandwidth: 64.0, ASICArea: 0.12, Power: 0.05, Pins: 0, BoardCost: 0}
)

// Off-PCB interfaces (paper: "Candidate off-PCB interfaces include PCI-e,
// commodity 1/10/40 GigE interfaces, and high speed point-to-point 10-20
// gbps serial links like Microsoft Catapult's inter-system SL3 links").
var (
	GigE1   = Link{Name: "1 GigE", Bandwidth: 0.125, ASICArea: 0, Power: 1.0, Pins: 8, BoardCost: 4}
	GigE10  = Link{Name: "10 GigE", Bandwidth: 1.25, ASICArea: 0, Power: 3.5, Pins: 16, BoardCost: 18}
	GigE40  = Link{Name: "40 GigE", Bandwidth: 5.0, ASICArea: 0, Power: 6.0, Pins: 32, BoardCost: 60}
	PCIeX8  = Link{Name: "PCIe x8", Bandwidth: 7.9, ASICArea: 0, Power: 4.0, Pins: 49, BoardCost: 12}
	SL3     = Link{Name: "SL3 serial", Bandwidth: 2.0, ASICArea: 0, Power: 1.2, Pins: 8, BoardCost: 6}
	NoneOff = Link{Name: "none"}
)

// ControlProcessor is the PCB-level scheduler ("typically an FPGA or
// microcontroller, but also potentially a CPU") that routes work from the
// off-PCB interfaces onto the on-PCB network.
type ControlProcessor struct {
	Name  string
	Power float64 // W
	Cost  float64 // $
}

// Standard control processor choices.
var (
	Microcontroller = ControlProcessor{Name: "microcontroller", Power: 1.5, Cost: 6}
	ControlFPGA     = ControlProcessor{Name: "FPGA", Power: 8, Cost: 55}
	ControlCPU      = ControlProcessor{Name: "embedded CPU", Power: 18, Cost: 90}
)

// Network is the complete communication plan for one server.
type Network struct {
	OnPCB      Link
	OnPCBLinks int // number of on-PCB link endpoints (≈ chip count)
	OffPCB     Link
	OffLinks   int
	Control    ControlProcessor
}

// Validate checks the plan's sanity.
func (n Network) Validate() error {
	if n.OnPCBLinks < 0 || n.OffLinks < 0 {
		return fmt.Errorf("interconnect: negative link counts")
	}
	return nil
}

// Cost is the board-level network cost.
func (n Network) Cost() float64 {
	return n.Control.Cost +
		float64(n.OnPCBLinks)*n.OnPCB.BoardCost +
		float64(n.OffLinks)*n.OffPCB.BoardCost
}

// PerChipPins is the package pin overhead per ASIC for its on-PCB link.
func (n Network) PerChipPins() int { return n.OnPCB.Pins }

// PerChipArea is the die overhead per ASIC for its on-PCB endpoint (mm²).
func (n Network) PerChipArea() float64 { return n.OnPCB.ASICArea }

// RequiredOffLinks returns how many off-PCB links of kind l are needed to
// carry the given aggregate bandwidth demand (GB/s).
func RequiredOffLinks(l Link, demandGBs float64) int {
	if demandGBs <= 0 {
		return 0
	}
	if l.Bandwidth <= 0 {
		return 0
	}
	n := int(demandGBs / l.Bandwidth)
	if float64(n)*l.Bandwidth < demandGBs-1e-12 {
		n++
	}
	return n
}
