package xcode

import (
	"asiccloud/internal/dram"
	"asiccloud/internal/interconnect"
	"asiccloud/internal/server"
	"asiccloud/internal/vlsi"
)

// RCA returns the video transcoding accelerator modeled on the ISSCC'15
// 0.5 nJ/pixel H.265/HEVC codec LSI the paper cites [26]. Performance is
// quoted in Kfps (thousands of reference frames per second per server in
// the paper's tables). One RCA transcodes ~33 fps at 0.9 V, so 22 RCAs
// saturate one LPDDR3 device (0.66 Kfps per DRAM — "One DRAM satisfies
// 22 RCA's at 0.9V").
func RCA() vlsi.Spec {
	return vlsi.Spec{
		Name:                "xcode-h265",
		PerfUnit:            "Kfps",
		Area:                3.0,
		NominalVoltage:      1.0,
		NominalFreq:         600e6,
		NominalPerf:         0.0327, // 0.0300 Kfps at 0.9 V × delay(0.9)
		NominalPowerDensity: 0.11,
		LeakageFraction:     0.04,
		SRAMPowerFraction:   0.25, // line buffers, search-window caches
		SRAMVmin:            0.9,
		VoltageScalable:     true,
	}
}

// PerfPerDRAM is each LPDDR3 device's transcoding capacity in Kfps.
const PerfPerDRAM = 0.66

// ServerConfig assembles the paper's XCode server around the RCA: ASIC-
// local LPDDR3 "to store the pre- and post-transcoded video frames",
// two 10-GigE off-PCB ports, an FPGA control processor, and the
// DRAM-premium PCB (handled by the server model).
func ServerConfig(dramsPerASIC int) (server.Config, error) {
	cfg := server.Default(RCA())
	sub, err := dram.NewSubsystem(dram.LPDDR3, dramsPerASIC)
	if err != nil {
		return server.Config{}, err
	}
	cfg.DRAM = sub
	cfg.PerfPerDRAM = PerfPerDRAM
	cfg.Network = &interconnect.Network{
		OnPCB:      interconnect.RapidIO,
		OnPCBLinks: cfg.ChipsPerLane * cfg.Lanes,
		OffPCB:     interconnect.GigE10,
		OffLinks:   2,
		Control:    interconnect.ControlFPGA,
	}
	// Compressed video in and out: ~15.7 MB/s per Kfps, so the paper's
	// 159 Kfps TCO-optimal server fills its two 10-GigE ports; the
	// evaluation scales the port count with throughput.
	cfg.OffPCBBytesPerOp = 0.0157
	return cfg, nil
}
