package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"peel/internal/service"
	"peel/internal/service/wire"
	"peel/internal/topology"
)

// TestWatchMainPrintsEachPush drives `peelsim watch -count 3` against an
// in-process service behind a wire server: the subscribe snapshot prints
// a resync line, a Join a push line, and PlanEpoch an epoch line; then
// the command prints its stats line and exits 0.
func TestWatchMainPrintsEachPush(t *testing.T) {
	g := topology.FatTree(4)
	svc := service.New(g, service.Options{})
	defer svc.Close()
	srv := wire.NewServer(svc, wire.Options{})
	defer srv.Close()
	var addr string
	if err := srv.ListenAndServe("127.0.0.1:0", func(a string) { addr = a }); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hosts := g.Hosts()
	if _, err := svc.CreateGroup(ctx, "g0", hosts[:4]); err != nil {
		t.Fatal(err)
	}

	out, pw := io.Pipe()
	var errOut strings.Builder
	exit := make(chan int, 1)
	go func() {
		exit <- watchMain(ctx, []string{"-addr", addr, "-groups", "g0", "-count", "3", "-timeout", "30s"}, pw, &errOut)
		pw.Close()
	}()
	lines := bufio.NewScanner(out)
	type line struct {
		Group   string          `json:"group"`
		Resync  bool            `json:"resync"`
		Failure bool            `json:"failure"`
		Epoch   bool            `json:"epoch"`
		Error   string          `json:"error"`
		Stats   json.RawMessage `json:"stats"`
	}
	next := func(what string) line {
		t.Helper()
		if !lines.Scan() {
			t.Fatalf("no %s line (err %v, stderr %q)", what, lines.Err(), errOut.String())
		}
		var l line
		if err := json.Unmarshal(lines.Bytes(), &l); err != nil {
			t.Fatalf("%s line %q: %v", what, lines.Text(), err)
		}
		return l
	}

	if l := next("snapshot"); l.Group != "g0" || !l.Resync || l.Error != "" {
		t.Fatalf("snapshot line %+v", l)
	}
	if _, err := svc.Join(ctx, "g0", hosts[9]); err != nil {
		t.Fatal(err)
	}
	if l := next("join push"); l.Group != "g0" || l.Resync || l.Failure || l.Epoch || l.Error != "" {
		t.Fatalf("join push line %+v", l)
	}
	ti, err := svc.GetTree(ctx, "g0")
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(ti.Tree.Members, func(m topology.NodeID) bool {
		p := ti.Tree.Parent[m]
		return p != topology.None && g.Node(p).Kind.IsSwitch() && g.Node(m).Kind.IsSwitch()
	})
	if i < 0 {
		t.Fatal("no inter-switch tree link to remove")
	}
	m := ti.Tree.Members[i]
	if _, err := svc.PlanEpoch(ctx, []topology.LinkID{g.LinkBetween(ti.Tree.Parent[m], m)}); err != nil {
		t.Fatal(err)
	}
	if l := next("epoch push"); l.Group != "g0" || !l.Epoch || l.Resync || l.Failure {
		t.Fatalf("epoch push line %+v", l)
	}
	if l := next("stats"); len(l.Stats) == 0 {
		t.Fatalf("last line %+v carries no stats", l)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch did not exit after -count updates")
	}
}
