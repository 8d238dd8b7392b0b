package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"asiccloud/internal/core"
)

// defaultSeed is the seed the golden digests were taken with.
const defaultSeed = 1

// golden.txt pins the reference answers of the default seed, so a
// change that moves both the measured path and its reference path the
// same way still fails. Each line is "<name> <sha256 hex>".
//
//go:embed golden.txt
var goldenText string

func loadGolden() (map[string]string, error) {
	out := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(goldenText))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("golden.txt: malformed line %q", line)
		}
		out[f[0]] = f[1]
	}
	return out, sc.Err()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// designAnswer is what design-xcode is checked on: both frontiers, the
// four optima and the prune summary. Result.Points is left out (its
// length is checked against Pruned.Feasible instead), since the
// reference path does not retain points.
type designAnswer struct {
	Frontier       []core.Point      `json:"frontier"`
	CarbonFrontier []core.Point      `json:"carbon_frontier"`
	EnergyOptimal  core.Point        `json:"energy_optimal"`
	CostOptimal    core.Point        `json:"cost_optimal"`
	TCOOptimal     core.Point        `json:"tco_optimal"`
	CarbonOptimal  core.Point        `json:"carbon_optimal"`
	Pruned         core.PruneSummary `json:"pruned"`
}

// answerBytes renders a Result's checked fields in a fixed encoding.
func answerBytes(res core.Result) ([]byte, error) {
	b, err := json.Marshal(designAnswer{
		Frontier:       res.Frontier,
		CarbonFrontier: res.CarbonFrontier,
		EnergyOptimal:  res.EnergyOptimal,
		CostOptimal:    res.CostOptimal,
		TCOOptimal:     res.TCOOptimal,
		CarbonOptimal:  res.CarbonOptimal,
		Pruned:         res.Pruned,
	})
	if err != nil {
		return nil, fmt.Errorf("encode answer: %w", err)
	}
	return b, nil
}

// oracle holds reference answers by key and checks measured answers
// against them byte for byte.
type oracle struct {
	want map[string][]byte
}

func newOracle() *oracle { return &oracle{want: make(map[string][]byte)} }

func (o *oracle) set(key string, ref []byte) { o.want[key] = ref }

// check reports nil when got equals the reference for key exactly.
func (o *oracle) check(key string, got []byte) error {
	ref, ok := o.want[key]
	if !ok {
		return fmt.Errorf("oracle: no reference for %s", key)
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("oracle: %s differs from its reference (%d bytes, want %d; sha256 %s, want %s)",
			key, len(got), len(ref), digest(got)[:12], digest(ref)[:12])
	}
	return nil
}

// pin compares a reference to its golden digest when one exists for
// the run's seed, and notes the digest in the report.
func pin(rep *report, golden map[string]string, name string, ref []byte) error {
	got := digest(ref)
	rep.notes = append(rep.notes, fmt.Sprintf("reference %s sha256 %s", name, got))
	if want, ok := golden[name]; ok && got != want {
		return fmt.Errorf("golden: %s reference digest %s, golden.txt pins %s", name, got, want)
	}
	return nil
}
