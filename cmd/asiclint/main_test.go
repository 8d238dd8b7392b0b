package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"asiccloud/internal/analysis/suite"
)

func TestUnknownAnalyzerExitsTwoListingNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "nosuch"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr does not name the bad analyzer: %s", msg)
	}
	for _, a := range suite.Analyzers() {
		if !strings.Contains(msg, a.Name) {
			t.Errorf("stderr does not list available analyzer %s: %s", a.Name, msg)
		}
	}
}

func TestListPrintsEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-list"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	for _, a := range suite.Analyzers() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output is missing %s", a.Name)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestAnalyzerSubsetOnCleanPackage pins -analyzers as a reporting
// filter over the whole suite: internal/cloud carries //lint:ignore
// directives for droppederr, which must still read as a known analyzer
// when only floatcmp is reported.
func TestAnalyzerSubsetOnCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "floatcmp", "../../internal/cloud"}, &stdout, &stderr)
	if code != 0 || stdout.Len() > 0 || stderr.Len() > 0 {
		t.Fatalf("exit = %d, want 0 with no output\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestJSONToStdoutTextToStderr pins the one-run report: with -json the
// grouped document goes to stdout and the same findings go to stderr as
// text lines, and findings still exit 1.
func TestJSONToStdoutTextToStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-analyzers", "floatcmp", "../../internal/analysis/floatcmp/testdata"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var doc struct {
		Count     int `json:"count"`
		Analyzers map[string]struct {
			Count int `json:"count"`
		} `json:"analyzers"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not the JSON report: %v\n%s", err, stdout.String())
	}
	if doc.Count == 0 || len(doc.Analyzers) != 1 || doc.Analyzers["floatcmp"].Count != doc.Count {
		t.Fatalf("report = %+v, want every finding under floatcmp", doc)
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != doc.Count {
		t.Fatalf("stderr has %d lines, want the %d findings as text:\n%s", len(lines), doc.Count, stderr.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, ": floatcmp: ") {
			t.Errorf("stderr line is not a floatcmp diagnostic: %s", l)
		}
	}
}
