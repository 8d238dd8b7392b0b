package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestDecodeRequest checks the one strict decoder both front ends use:
// one JSON value, no unknown field, and nothing after it but
// whitespace.
func TestDecodeRequest(t *testing.T) {
	for _, body := range []string{
		`{"app":"bitcoin"}`,
		" \t\r\n{\"app\":\"bitcoin\"}\n",
		`{"app":"bitcoin"}` + "\n\n  \t",
	} {
		req, err := DecodeRequest(strings.NewReader(body))
		if err != nil || req.App != "bitcoin" {
			t.Errorf("%q: got %+v, %v; want the bitcoin request", body, req, err)
		}
	}
	for name, body := range map[string]string{
		"trailing value":   `{"app":"bitcoin"} {"app":"xcode"}`,
		"trailing scalar":  `{"app":"bitcoin"} 1`,
		"trailing garbage": `{"app":"bitcoin"}x`,
		"trailing bracket": `{"app":"bitcoin"}]`,
		"unknown field":    `{"app":"bitcoin","bogus":1}`,
		"truncated":        `{"app":"bitc`,
		"empty":            ``,
	} {
		if req, err := DecodeRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: %q decoded to %+v, want an error", name, body, req)
		}
	}
}

// spelledOut is the request that spells out every resolved field of c:
// all seven tco and all eight carbon fields, the grids, dram_kind and
// objective, and rca for a custom app.
func spelledOut(c Canonical) *Request {
	m, cb := c.Model, c.Carbon
	req := &Request{
		App: c.App,
		Sweep: SweepSpec{
			Voltages:       c.Voltages,
			SiliconPerLane: c.SiliconPerLane,
			ChipsPerLane:   c.ChipsPerLane,
			DRAMPerASIC:    c.DRAMPerASIC,
			DRAMKind:       c.DRAMKind.String(),
			Stacked:        c.Stacked,
		},
		TCO: &TCOSpec{
			ServerMarkup:       &m.ServerMarkup,
			InterestRate:       &m.InterestRate,
			LifetimeYears:      &m.LifetimeYears,
			DCCapexPerWattYear: &m.DCCapexPerWattYear,
			DCAmortYears:       &m.DCAmortYears,
			ElectricityPerKWh:  &m.ElectricityPerKWh,
			PUE:                &m.PUE,
		},
		Objective: c.Objective,
		Carbon: &CarbonSpec{
			WaferKgCO2e:     &cb.WaferKgCO2e,
			PackageKgCO2e:   &cb.PackageKgCO2e,
			HeatSinkKgCO2e:  &cb.HeatSinkKgCO2e,
			BoardKgCO2e:     &cb.BoardKgCO2e,
			GridGCO2ePerKWh: &cb.GridGCO2ePerKWh,
			PUE:             &cb.PUE,
			LifetimeYears:   &cb.LifetimeYears,
			Utilization:     &cb.Utilization,
		},
	}
	if c.App == "custom" {
		r := c.RCA
		req.RCA = &RCASpec{
			Name:                r.Name,
			PerfUnit:            r.PerfUnit,
			AreaMM2:             r.Area,
			NominalVoltage:      r.NominalVoltage,
			NominalFreqHz:       r.NominalFreq,
			NominalPerf:         r.NominalPerf,
			NominalPowerDensity: r.NominalPowerDensity,
			LeakageFraction:     r.LeakageFraction,
			SRAMPowerFraction:   r.SRAMPowerFraction,
		}
	}
	return req
}

// reencoded sends req through json.Marshal, DecodeRequest and
// Canonicalize, failing the test at any step.
func reencoded(t *testing.T, what string, req *Request) Canonical {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	dec, err := DecodeRequest(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s does not decode: %v", what, body, err)
	}
	can, err := Canonicalize(dec)
	if err != nil {
		t.Fatalf("%s %s does not canonicalize: %v", what, body, err)
	}
	return can
}

// FuzzSweepRequest feeds bytes through DecodeRequest and Canonicalize,
// the path every POST /v1/sweeps body and -request file takes. Nothing
// may panic. An accepted request has a 64-hex-digit hash and plans. The
// request re-encoded by json.Marshal canonicalizes to the same hash, so
// the hash follows what a request means, not how it was spelled. And
// the request that spells out every resolved field of its Canonical is
// the same request: it canonicalizes to an equal Canonical with the
// same hash. The corpus is in testdata/fuzz/FuzzSweepRequest.
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		can, err := Canonicalize(req)
		if err != nil {
			return
		}
		h := can.Hash()
		if len(h) != 64 || strings.Trim(h, "0123456789abcdef") != "" {
			t.Fatalf("hash %q is not 64 lowercase hex digits", h)
		}
		if _, _, err := can.Plan(); err != nil {
			t.Fatalf("accepted request does not plan: %v", err)
		}
		if h2 := reencoded(t, "re-encoded request", req).Hash(); h2 != h {
			t.Fatalf("re-encoded request hashes to %s, the original to %s", h2, h)
		}
		full := reencoded(t, "spelled-out request", spelledOut(can))
		if !reflect.DeepEqual(full, can) {
			t.Fatalf("spelled-out request canonicalizes to\n%+v\nthe original to\n%+v", full, can)
		}
		if h3 := full.Hash(); h3 != h {
			t.Fatalf("spelled-out request hashes to %s, the original to %s", h3, h)
		}
	})
}
