package bitcoin

import (
	"asiccloud/internal/units"
	"asiccloud/internal/vlsi"
)

// RCA returns the paper's published Bitcoin replicated compute
// accelerator: a fully pipelined double-SHA256 core, "128 one-clock
// stages, one per SHA256 round", occupying 0.66 mm² in UMC 28nm and
// attaining "a staggering power density of 2 W per mm²" at the nominal
// 1.0 V / 830 MHz, one hash per cycle (0.83 GH/s). Cryptographic data is
// essentially random, so activity factors are extreme and there is no
// SRAM; leakage is a small fraction of the total.
func RCA() vlsi.Spec {
	return vlsi.Spec{
		Name:                "bitcoin-sha256d",
		PerfUnit:            "GH/s",
		Area:                0.66,
		NominalVoltage:      1.0,
		NominalFreq:         830e6,
		NominalPerf:         0.83,
		NominalPowerDensity: 2.0,
		LeakageFraction:     0.008,
		SRAMPowerFraction:   0,
		VoltageScalable:     true,
	}
}

// RolledRCA returns the alternative RCA style the paper describes:
// "The less prevalent style, used by Bitfury, performs the hash in
// place, and has been termed a rolled core." One round circuit iterates
// 2×64 times per hash, so the core is ~1/128 the size of the unrolled
// pipeline and completes a hash every 128 cycles. It trades away the
// pipeline registers but pays the state registers on every hash —
// structurally modeled in RolledNetlist and cross-checked by tests.
func RolledRCA() vlsi.Spec {
	tech := vlsi.Generic28nm()
	spec, err := tech.Estimate(RolledNetlist(), 830e6, units.HsToGHs(1/float64(2*Rounds)), "GH/s")
	if err != nil {
		// The netlist below is a constant; estimation cannot fail.
		panic(err)
	}
	spec.Name = "bitcoin-sha256d-rolled"
	return spec
}

// RolledNetlist is the in-place variant: one round of logic plus the
// hash state, message schedule and round sequencing.
func RolledNetlist() vlsi.Netlist {
	return vlsi.Netlist{
		Name:         "bitcoin-sha256d-rolled",
		Gates:        2200, // round logic + schedule mux + control
		Flops:        880,  // 256b state + 512b schedule + counters
		CombActivity: 0.5,
		FlopActivity: 1.0,
	}
}
