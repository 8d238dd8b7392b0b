package litecoin

import "asiccloud/internal/vlsi"

// RCA returns the Litecoin replicated compute accelerator, calibrated to
// the paper's Table 4 operating points. "Because Litecoin consists of
// repeated sequential accesses to 128KB memories, the power density per
// mm² is much lower, which leads to larger chips at higher voltages
// versus Bitcoin." The scratchpad SRAM sits on its own rail with
// Vmin = 0.9 V (paper: "SRAM Vmin is set to 0.9V"), so most of the
// design's power stops scaling below that point — the reason Litecoin's
// TCO-optimal voltage (0.70 V) is far above Bitcoin's (0.49 V).
//
// Calibration: the TCO-optimal server runs 48,000 mm² at 0.70 V/615 MHz
// for 1,164 MH/s, implying a nominal (1.0 V, ~900 MHz) performance
// density of ~0.036 MH/s/mm²; its ~3.4 kW wall power implies a nominal
// power density near 0.12 W/mm² with ~65% of power on the SRAM rail.
func RCA() vlsi.Spec {
	return vlsi.Spec{
		Name:                "litecoin-scrypt",
		PerfUnit:            "MH/s",
		Area:                2.0,
		NominalVoltage:      1.0,
		NominalFreq:         900e6,
		NominalPerf:         0.073,
		NominalPowerDensity: 0.118,
		LeakageFraction:     0.03,
		SRAMPowerFraction:   0.65,
		SRAMVmin:            0.9,
		VoltageScalable:     true,
	}
}
