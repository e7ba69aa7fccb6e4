package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peel/internal/topology"
)

func newTestDaemon(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	d, err := NewDaemon(DaemonConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Service().Close)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

func doJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func TestDaemonGroupLifecycleHTTP(t *testing.T) {
	d, srv := newTestDaemon(t)
	hosts := d.Service().Graph().Hosts()

	var gi groupJSON
	code := doJSON(t, "POST", srv.URL+"/v1/groups",
		fmt.Sprintf(`{"id":"g1","members":[%d,%d,%d]}`, hosts[0], hosts[4], hosts[9]), &gi)
	if code != http.StatusCreated || gi.ID != "g1" || len(gi.Members) != 3 {
		t.Fatalf("create: code %d info %+v", code, gi)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/groups",
		fmt.Sprintf(`{"id":"g1","members":[%d,%d]}`, hosts[0], hosts[1]), nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/groups/g1", "", &gi); code != http.StatusOK {
		t.Fatalf("describe: %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/groups/nope", "", nil); code != http.StatusNotFound {
		t.Fatalf("describe missing: %d", code)
	}

	var tr TreeResponse
	if code := doJSON(t, "GET", srv.URL+"/v1/groups/g1/tree", "", &tr); code != http.StatusOK {
		t.Fatalf("tree: %d", code)
	}
	if tr.Cached || tr.Cost <= 0 || len(tr.Edges) != tr.Cost {
		t.Fatalf("cold tree response: %+v", tr)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/groups/g1/tree", "", &tr); code != http.StatusOK || !tr.Cached {
		t.Fatalf("warm tree not cached: code %d %+v", code, tr)
	}

	if code := doJSON(t, "POST", srv.URL+"/v1/groups/g1/join",
		fmt.Sprintf(`{"host":%d}`, hosts[13]), &gi); code != http.StatusOK || len(gi.Members) != 4 {
		t.Fatalf("join: code %d %+v", code, gi)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/groups/g1/leave",
		fmt.Sprintf(`{"host":%d}`, hosts[13]), &gi); code != http.StatusOK || len(gi.Members) != 3 {
		t.Fatalf("leave: code %d %+v", code, gi)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/groups/g1/leave", `{"host":1234}`, nil); code != http.StatusBadRequest {
		t.Fatalf("leave non-member: %d", code)
	}

	var st Stats
	if code := doJSON(t, "GET", srv.URL+"/v1/stats", "", &st); code != http.StatusOK || st.Groups != 1 {
		t.Fatalf("stats: code %d %+v", code, st)
	}

	if code := doJSON(t, "DELETE", srv.URL+"/v1/groups/g1", "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/groups/g1/tree", "", nil); code != http.StatusNotFound {
		t.Fatalf("tree after delete: %d", code)
	}
}

func TestDaemonChaosEndpointInvalidates(t *testing.T) {
	d, srv := newTestDaemon(t)
	s := d.Service()
	hosts := s.Graph().Hosts()
	if _, err := s.CreateGroup(context.Background(), "c", []topology.NodeID{hosts[0], hosts[4]}); err != nil {
		t.Fatal(err)
	}
	ti, err := s.GetTree(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	link := switchLink(t, s.Graph(), ti.Tree)

	var res map[string]bool
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/chaos/links/%d", srv.URL, link),
		`{"failed":true}`, &res); code != http.StatusOK || !res["changed"] {
		t.Fatalf("fail link: code %d %v", code, res)
	}
	var tr TreeResponse
	if code := doJSON(t, "GET", srv.URL+"/v1/groups/c/tree", "", &tr); code != http.StatusOK {
		t.Fatalf("tree after failure: %d", code)
	}
	if tr.Cached || tr.CurrentGen != 1 {
		t.Fatalf("failure did not force recompute: %+v", tr)
	}
	// Idempotent fail reports no transition; bad link IDs are 400s.
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/chaos/links/%d", srv.URL, link),
		`{"failed":true}`, &res); code != http.StatusOK || res["changed"] {
		t.Fatalf("refail: code %d %v", code, res)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/chaos/links/999999", `{"failed":true}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad link id: %d", code)
	}
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/chaos/links/%d", srv.URL, link),
		`{"failed":false}`, &res); code != http.StatusOK || !res["changed"] {
		t.Fatalf("heal: code %d %v", code, res)
	}
}

func TestDaemonHealthAndReportEndpoints(t *testing.T) {
	_, srv := newTestDaemon(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// No telemetry sink armed: the report endpoint says so.
	if code := doJSON(t, "GET", srv.URL+"/v1/report", "", nil); code != http.StatusNotFound {
		t.Fatalf("report without sink: %d", code)
	}
}

func TestDaemonRunDrainsGracefully(t *testing.T) {
	ready := make(chan string, 1)
	d, err := NewDaemon(DaemonConfig{
		Addr:    "127.0.0.1:0",
		K:       4,
		OnReady: func(addr string) { ready <- addr },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
	// The service is closed and its observer unsubscribed.
	if _, err := d.Service().GetTree(context.Background(), "x"); err == nil {
		t.Fatal("service still serving after drain")
	}
	if n := d.Service().Graph().NumObservers(); n != 0 {
		t.Fatalf("%d observers leaked after drain", n)
	}
}

func TestDaemonRejectsBadArity(t *testing.T) {
	if _, err := NewDaemon(DaemonConfig{K: 3}); err == nil {
		t.Fatal("odd arity accepted")
	}
}

// TestDaemonSlowPeelAnswers504AndReleasesToken pins the deadline
// contract end to end: a tree computation that outlives the per-request
// timeout answers 504, holds its admission token only while computing
// (proved by a concurrent 429), and returns the token when the abandoned
// request finishes — capacity is never leaked to a hung client.
func TestDaemonSlowPeelAnswers504AndReleasesToken(t *testing.T) {
	var gate atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	svc := New(topology.FatTree(4), Options{
		MaxInflight: 1,
		ComputeHook: func() {
			if gate.CompareAndSwap(true, false) {
				entered <- struct{}{}
				<-release
			}
		},
	})
	t.Cleanup(svc.Close)
	d := NewDaemonFor(svc, DaemonConfig{RequestTimeout: 100 * time.Millisecond})
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	// Registered last so it runs first: a failed assertion must not leave
	// the gated compute blocking svc.Close until the package timeout.
	releaseGate := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseGate)

	hosts := svc.Graph().Hosts()
	for i, id := range []string{"slow", "other"} {
		members := []topology.NodeID{hosts[4*i], hosts[4*i+1], hosts[4*i+2]}
		if _, err := svc.CreateGroup(context.Background(), id, members); err != nil {
			t.Fatal(err)
		}
	}

	get := func(id string) int {
		resp, err := http.Get(srv.URL + "/v1/groups/" + id + "/tree")
		if err != nil {
			t.Errorf("GET %s: %v", id, err)
			return -1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	gate.Store(true)
	slowCode := make(chan int, 1)
	go func() { slowCode <- get("slow") }()
	<-entered // the slow peel now holds the only admission token

	if code := get("other"); code != http.StatusTooManyRequests {
		t.Fatalf("concurrent miss with token held: %d, want 429", code)
	}

	// Let the slow request's deadline expire before the compute finishes:
	// the handler must answer 504, not hang and not 200.
	time.Sleep(150 * time.Millisecond)
	releaseGate()
	select {
	case code := <-slowCode:
		if code != http.StatusGatewayTimeout {
			t.Fatalf("slow peel answered %d, want 504", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow request never completed")
	}

	// The abandoned request's token is back: the same miss now computes.
	if code := get("other"); code != http.StatusOK {
		t.Fatalf("miss after token release: %d, want 200", code)
	}
}

// TestDaemonReadyzSplitsFromHealthz: /healthz is pure liveness and stays
// 200 for the life of the process; /readyz flips to 503 the moment the
// API stops being able to serve correctly (here: the service closed and
// unsubscribed its topology observer).
func TestDaemonReadyzSplitsFromHealthz(t *testing.T) {
	svc := New(topology.FatTree(4), Options{})
	d := NewDaemonFor(svc, DaemonConfig{})
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	status := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz while serving: %d", code)
	}
	if code := status("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while serving: %d", code)
	}
	svc.Close()
	if code := status("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close: %d, want 503", code)
	}
	if code := status("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after close: %d, want 200 (liveness, not readiness)", code)
	}
}

// endlessBody is a request body that never ends: a JSON document, then
// spaces forever.
type endlessBody struct{ head *strings.Reader }

func (b endlessBody) Read(p []byte) (int, error) {
	if b.head.Len() > 0 {
		return b.head.Read(p)
	}
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestDaemonAnswersDespiteEndlessBody: the handler drains at most maxBody
// of a request body after decoding it, so a client whose valid JSON is
// followed by a body that never ends still gets its answer.
func TestDaemonAnswersDespiteEndlessBody(t *testing.T) {
	d, srv := newTestDaemon(t)
	hosts := d.Service().Graph().Hosts()
	body := endlessBody{strings.NewReader(fmt.Sprintf(`{"id":"g1","members":[%d,%d]}`, hosts[0], hosts[5]))}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/groups", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no answer within 2 s: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d, want 201", resp.StatusCode)
	}
}
