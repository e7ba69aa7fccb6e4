package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"peel/internal/invariant"
)

// End-to-end exit-code contract of realMain: 0 clean, 1 failure or
// invariant violation, 2 usage error.

func TestRealMainUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no experiments", nil},
		{"undefined flag", []string{"-no-such-flag", "fig1"}},
		{"negative samples", []string{"-samples", "-3", "fig1"}},
		{"negative workers", []string{"-workers", "-1", "fig1"}},
		{"load above 1", []string{"-load", "1.5", "fig1"}},
		{"chaosfrac above 1", []string{"-chaosfrac", "2", "chaos"}},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		if code := realMain(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit code %d, want 2 (stderr: %s)", tc.name, code, errOut.String())
		}
	}
}

func TestRealMainUnknownExperimentFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-quick", "nonesuch"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Fatalf("stderr missing diagnosis: %s", errOut.String())
	}
}

func TestRealMainCheckedRunIsCleanAndReports(t *testing.T) {
	var out, errOut bytes.Buffer
	code := realMain([]string{"-quick", "-samples", "2", "-check", "state", "fig1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "invariant") {
		t.Fatalf("-check did not print the suite report:\n%s", out.String())
	}
}

func TestExitCodeOnViolatedSuite(t *testing.T) {
	s := invariant.NewSuite()
	s.Violatef(invariant.SimTimeMonotone, "synthetic violation for the exit-code test")
	var out, errOut bytes.Buffer
	if code := exitCode(0, s, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "invariant violation") {
		t.Fatalf("stderr missing violation notice: %s", errOut.String())
	}
}

func TestExitCodeFoldsExperimentFailures(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := exitCode(2, nil, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if code := exitCode(0, nil, &out, &errOut); code != 0 {
		t.Fatalf("clean exit code %d, want 0", code)
	}
}

// TestQuickAllGolden pins the full stdout of `peelsim -quick all`: every
// experiment's rendered tables and notes, in order. Wall times go to
// stderr, so stdout is deterministic at any -workers value. After an
// intentional change to a printed number, regenerate with
//
//	PEEL_UPDATE_GOLDEN=1 go test -run TestQuickAllGolden ./cmd/peelsim
func TestQuickAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at -quick fidelity")
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-quick", "all"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr: %s", code, errOut.String())
	}
	path := filepath.Join("testdata", "quick_all.golden.txt")
	if os.Getenv("PEEL_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with PEEL_UPDATE_GOLDEN=1): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("peelsim -quick all stdout drifted from %s.\nIf intentional, regenerate with PEEL_UPDATE_GOLDEN=1.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
