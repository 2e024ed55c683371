package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"altstacks/internal/lint"
)

func diag(file string, line int, check, msg string) lint.Diagnostic {
	return lint.Diagnostic{
		Pos:     token.Position{Filename: file, Line: line, Column: 3},
		Check:   check,
		Message: msg,
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	cwd := t.TempDir()
	diags := []lint.Diagnostic{
		diag(filepath.Join(cwd, "a.go"), 10, "ogsalint/lockheld", "held across Do"),
		diag(filepath.Join(cwd, "b.go"), 20, "ogsalint/timerleak", "time.After in a loop"),
	}

	// Write an inventory the way -json does, then load it back.
	var entries []jsonFinding
	for _, d := range diags {
		entries = append(entries, toJSONFinding(cwd, d))
	}
	if entries[0].File != "a.go" {
		t.Fatalf("file not relativized: %q", entries[0].File)
	}
	if entries[0].Analyzer != "lockheld" {
		t.Fatalf("analyzer not stripped: %q", entries[0].Analyzer)
	}
	path := filepath.Join(cwd, "baseline.json")
	writeJSON(t, path, entries)

	baseline, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := applyBaseline(cwd, diags, baseline); len(got) != 0 {
		t.Fatalf("baselined findings still gate: %v", got)
	}
}

func TestBaselineReportsOnlyNew(t *testing.T) {
	cwd := t.TempDir()
	old := diag(filepath.Join(cwd, "a.go"), 10, "ogsalint/lockheld", "held across Do")
	path := filepath.Join(cwd, "baseline.json")
	writeJSON(t, path, []jsonFinding{toJSONFinding(cwd, old)})
	baseline, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	// The old finding drifted ten lines; a new one appeared elsewhere.
	drifted := diag(filepath.Join(cwd, "a.go"), 20, "ogsalint/lockheld", "held across Do")
	fresh := diag(filepath.Join(cwd, "c.go"), 5, "ogsalint/atomicmix", "plain read of atomic field")
	got := applyBaseline(cwd, []lint.Diagnostic{drifted, fresh}, baseline)
	if len(got) != 1 || got[0].Message != "plain read of atomic field" {
		t.Fatalf("want only the fresh finding, got %v", got)
	}
}

func TestBaselineMultisetCounts(t *testing.T) {
	cwd := t.TempDir()
	d := diag(filepath.Join(cwd, "a.go"), 10, "ogsalint/rawxml", "concatenated XML")
	path := filepath.Join(cwd, "baseline.json")
	writeJSON(t, path, []jsonFinding{toJSONFinding(cwd, d)})
	baseline, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	// Two identical findings against a baseline holding one: the
	// second instance is new and must gate.
	dup := diag(filepath.Join(cwd, "a.go"), 30, "ogsalint/rawxml", "concatenated XML")
	got := applyBaseline(cwd, []lint.Diagnostic{d, dup}, baseline)
	if len(got) != 1 {
		t.Fatalf("multiset baseline absorbed %d findings, want it to absorb exactly 1", 2-len(got))
	}
}

func TestBaselineSkipsSuppressedEntries(t *testing.T) {
	cwd := t.TempDir()
	supp := toJSONFinding(cwd, diag(filepath.Join(cwd, "a.go"), 10, "ogsalint/soapfault", "dropped error"))
	supp.Suppressed = true
	path := filepath.Join(cwd, "baseline.json")
	writeJSON(t, path, []jsonFinding{supp})
	baseline, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 0 {
		t.Fatalf("suppressed baseline entries must not absorb findings: %v", baseline)
	}
}

func writeJSON(t *testing.T, path string, entries []jsonFinding) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(entries); err != nil {
		t.Fatal(err)
	}
}
