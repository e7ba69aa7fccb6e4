package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"peel/internal/topology"
)

func TestRealMainUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := realMain(context.Background(), []string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	out.Reset()
	errOut.Reset()
	if code := realMain(context.Background(), []string{"extra"}, &out, &errOut); code != 2 {
		t.Fatalf("stray argument: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unexpected argument") {
		t.Fatalf("stray-argument error missing: %q", errOut.String())
	}
}

// TestRealMainServesAndDrains runs the full daemon path with an
// already-cancelled context: the listener binds, the drain executes
// immediately, and the exit is clean.
func TestRealMainServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	code := realMain(ctx, []string{"-addr", "127.0.0.1:0", "-k", "4", "-check", "-telemetry"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "listening on") || !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("lifecycle output missing: %q", out.String())
	}
	// -check prints the invariant report on the way out.
	if !strings.Contains(out.String(), "service.served-tree-fresh") {
		t.Fatalf("invariant report missing: %q", out.String())
	}
}

// TestRealMainBannerShowsShardsAndMaxInflight checks that -shards and
// -max-inflight reach the daemon: the listen banner reports both, and
// the drain is still clean.
func TestRealMainBannerShowsShardsAndMaxInflight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	code := realMain(ctx, []string{"-addr", "127.0.0.1:0", "-k", "4", "-shards", "4", "-max-inflight", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("drain output missing: %q", out.String())
	}
	if !strings.Contains(out.String(), "4 shards") || !strings.Contains(out.String(), "max-inflight 2") {
		t.Fatalf("flag plumbing not reflected in banner: %q", out.String())
	}
}

func TestRealMainFederationFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-router", "-replica", "r0", "-join", "http://x"},
		{"-replica", "r0"},
		{"-join", "http://x"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := realMain(context.Background(), args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}

// proc is one in-process peeld run: realMain on its own context with its
// output scanned for the announced listen address.
type proc struct {
	cancel context.CancelFunc
	done   chan int
}

func (p *proc) stop(t *testing.T) int {
	t.Helper()
	p.cancel()
	select {
	case code := <-p.done:
		return code
	case <-time.After(10 * time.Second):
		t.Fatal("peeld did not drain")
		return -1
	}
}

func startPeeld(t *testing.T, args ...string) (*proc, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	p := &proc{cancel: cancel, done: make(chan int, 1)}
	t.Cleanup(func() { cancel(); pr.Close() })
	go func() {
		p.done <- realMain(ctx, args, pw, pw)
		pw.Close()
	}()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addrCh:
		return p, a
	case <-time.After(10 * time.Second):
		t.Fatal("peeld never announced its listener")
		return nil, ""
	}
}

// TestRouterAndReplicaEndToEnd boots a federation router and a replica
// that self-registers over HTTP, serves a group through the pair, then
// takes the replica away and proves the router keeps answering.
func TestRouterAndReplicaEndToEnd(t *testing.T) {
	router, raddr := startPeeld(t, "-router", "-addr", "127.0.0.1:0", "-k", "4",
		"-health-interval", "20ms")
	routerURL := "http://" + raddr
	replica, _ := startPeeld(t, "-replica", "r0", "-join", routerURL,
		"-addr", "127.0.0.1:0", "-k", "4")

	type censusJSON struct {
		Events   uint64 `json:"events"`
		Replicas []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"replicas"`
	}
	waitReplica := func(state string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			var c censusJSON
			resp, err := http.Get(routerURL + "/v1/federation")
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&c)
				resp.Body.Close()
			}
			if err == nil && len(c.Replicas) == 1 && c.Replicas[0].Name == "r0" && c.Replicas[0].State == state {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica never reached state %q (last census: %+v, err: %v)", state, c, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitReplica("up")

	hosts := topology.FatTree(4).Hosts()
	body := fmt.Sprintf(`{"id":"g1","members":[%d,%d,%d]}`, hosts[0], hosts[5], hosts[10])
	resp, err := http.Post(routerURL+"/v1/groups", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create group: %d", resp.StatusCode)
	}
	getTree := func() {
		t.Helper()
		resp, err := http.Get(routerURL + "/v1/groups/g1/tree")
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			Cost  int        `json:"cost"`
			Edges [][2]int32 `json:"edges"`
		}
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || tr.Cost <= 0 || len(tr.Edges) != tr.Cost {
			t.Fatalf("tree: code %d err %v resp %+v", resp.StatusCode, err, tr)
		}
	}
	getTree() // served through the registered replica

	// Take the replica away: the router's health loop must mark it down
	// and requests must keep succeeding via direct re-peel.
	if code := replica.stop(t); code != 0 {
		t.Fatalf("replica exit %d", code)
	}
	waitReplica("down")
	getTree()

	if code := router.stop(t); code != 0 {
		t.Fatalf("router exit %d", code)
	}
}
