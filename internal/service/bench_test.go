package service

import (
	"testing"

	"asiccloud/internal/core"
)

// Layer microbenchmarks for the two service steps every cold sweep
// request runs besides the sweep itself.

// canonicalOf canonicalizes a JSON request body.
func canonicalOf(b *testing.B, body string) Canonical {
	b.Helper()
	c, err := Canonicalize(decode(b, body))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkMarshalResult measures marshalResult, which renders a
// finished sweep into the bytes its response and every later cache hit
// serve, on the default bitcoin and xcode sweeps. It reports the
// result's size.
func BenchmarkMarshalResult(b *testing.B) {
	for _, app := range []string{"bitcoin", "xcode"} {
		b.Run(app, func(b *testing.B) {
			c := canonicalOf(b, `{"app":"`+app+`"}`)
			sweep, model, err := c.Plan()
			if err != nil {
				b.Fatal(err)
			}
			eng := core.NewEngine(nil)
			eng.DiscardPoints = true
			res, err := eng.Explore(sweep, model)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var size int
			for i := 0; i < b.N; i++ {
				out, err := marshalResult(c, res)
				if err != nil {
					b.Fatal(err)
				}
				size = len(out)
			}
			b.ReportMetric(float64(size), "result-B")
		})
	}
}

// BenchmarkCanonicalHash measures Canonical.Hash, the result cache's
// key, on a default request and on one that spells out a voltage grid,
// DRAM counts, stacking and TCO and carbon overrides.
func BenchmarkCanonicalHash(b *testing.B) {
	for _, tc := range []struct{ name, body string }{
		{"default", `{"app":"bitcoin"}`},
		{"overrides", `{"app":"xcode","sweep":{"voltages_v":[0.5,0.6,0.7,0.8,0.9],` +
			`"dram_per_asic":[1,2,3],"stacked":true},"tco":{"electricity_per_kwh":0.1},` +
			`"objective":"carbon","carbon":{"grid_g_co2e_per_kwh":20}}`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := canonicalOf(b, tc.body)
			for i := 0; i < b.N; i++ {
				c.Hash()
			}
		})
	}
}
