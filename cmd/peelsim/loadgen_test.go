package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestLoadgenMainUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // in stderr
	}{
		{"undefined flag", []string{"-bogus"}, "not defined"},
		{"stray argument", []string{"stray"}, "unexpected argument"},
		{"odd arity", []string{"-k", "3"}, "must be even"},
		{"negative replicas", []string{"-replicas", "-1"}, "non-negative"},
		{"kill-every without replicas", []string{"-kill-every", "100"}, "-kill-every requires -replicas"},
		{"propagation with replicas", []string{"-replicas", "2", "-propagation", "push"}, "requires single-node mode"},
	}
	for _, tc := range cases {
		var out, errOut strings.Builder
		code := loadgenMain(context.Background(), tc.args, &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%s: exit %d, want 2 with %q (stderr: %s)", tc.name, code, tc.want, errOut.String())
		}
	}
}

// loadgenReport is the JSON document a loadgen run leads its output with;
// the invariant report follows it under -check.
type loadgenReport struct {
	Config struct {
		K        int `json:"k"`
		Replicas int `json:"replicas"`
	} `json:"config"`
	Stats struct {
		Ops    int `json:"ops"`
		Errors int `json:"errors"`
		Kills  int `json:"replica_kills"`
		Flaps  int `json:"flaps"`
	} `json:"stats"`
	Census *struct {
		Replicas []struct {
			Name string `json:"name"`
		} `json:"replicas"`
	} `json:"census"`
}

func runLoadgen(t *testing.T, args ...string) (loadgenReport, string) {
	t.Helper()
	var out, errOut strings.Builder
	if code := realMain(append([]string{"loadgen"}, args...), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	var rep loadgenReport
	if err := json.NewDecoder(strings.NewReader(out.String())).Decode(&rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, out.String())
	}
	return rep, out.String()
}

// TestLoadgenReplicasChaosRunIsClean drives a short checked federated
// chaos run end to end through the subcommand and asserts zero failed
// ops, chaos actually fired, and a census of every replica.
func TestLoadgenReplicasChaosRunIsClean(t *testing.T) {
	rep, out := runLoadgen(t, "-k", "4", "-replicas", "2", "-groups", "8", "-group-size", "4",
		"-ops", "1000", "-flap-every", "100", "-kill-every", "150", "-check")
	if rep.Config.K != 4 || rep.Config.Replicas != 2 {
		t.Fatalf("config echoed wrong: %+v", rep.Config)
	}
	if rep.Stats.Ops != 1000 || rep.Stats.Errors != 0 {
		t.Fatalf("stats: %+v", rep.Stats)
	}
	if rep.Stats.Kills == 0 || rep.Stats.Flaps == 0 {
		t.Fatalf("chaos never fired: %+v", rep.Stats)
	}
	if rep.Census == nil || len(rep.Census.Replicas) != 2 {
		t.Fatalf("census = %+v, want 2 replicas", rep.Census)
	}
	if !strings.Contains(out, "federation.answer-oracle-identical") {
		t.Fatalf("invariant report missing federation check:\n%s", out)
	}
}

// TestLoadgenSingleNodeCheckedRun is the default mode: one in-process
// service, link flaps, no replicas and no census.
func TestLoadgenSingleNodeCheckedRun(t *testing.T) {
	rep, out := runLoadgen(t, "-k", "4", "-groups", "8", "-group-size", "4",
		"-ops", "1000", "-flap-every", "100", "-check")
	if rep.Config.K != 4 || rep.Config.Replicas != 0 || rep.Census != nil {
		t.Fatalf("single-node run reported federation state: %+v", rep)
	}
	if rep.Stats.Ops != 1000 || rep.Stats.Errors != 0 || rep.Stats.Flaps == 0 || rep.Stats.Kills != 0 {
		t.Fatalf("stats: %+v", rep.Stats)
	}
	if !strings.Contains(out, "service.served-tree-fresh") {
		t.Fatalf("invariant report missing:\n%s", out)
	}
}
