package perfstats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorAggregatesConcurrently(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Record(10, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s := c.Summary()
	if s.Runs != 800 || s.Events != 8000 || s.SimWall != 800*time.Millisecond {
		t.Fatalf("summary %+v", s)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Record(5, time.Second) // must not panic
	if s := c.Summary(); s.Runs != 0 {
		t.Fatalf("nil collector recorded: %+v", s)
	}
}

func TestNoteMentionsThroughput(t *testing.T) {
	var c Collector
	c.Record(2_000_000, 2*time.Second)
	n := c.Note(time.Second, 42)
	if !strings.Contains(n, "events/s") || !strings.Contains(n, "2.00 workers busy") {
		t.Fatalf("note %q", n)
	}
	if strings.Contains(n, "speedup") {
		t.Fatalf("note %q calls worker occupancy a speedup", n)
	}
}

func TestParseGoBench(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: peel
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLayerPeelingTree-4     	    3770	     61302 ns/op	   34032 B/op	     200 allocs/op
BenchmarkHeaderCodec            	 2503220	        98.30 ns/op	       8 B/op	       1 allocs/op
BenchmarkNoMem-8 	 100	 5000 ns/op
BenchmarkFlapChurnRecompute/patch-8   	   50000	       991.9 ns/op	     21684 p99-ns
PASS
ok  	peel	1.823s
`
	bs, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 4 {
		t.Fatalf("parsed %d benchmarks: %+v", len(bs), bs)
	}
	lp := bs[0]
	if lp.Name != "BenchmarkLayerPeelingTree" || lp.Iterations != 3770 ||
		lp.NsPerOp != 61302 || lp.BytesPerOp != 34032 || lp.AllocsPerOp != 200 {
		t.Fatalf("bad parse %+v", lp)
	}
	if bs[1].NsPerOp != 98.30 || bs[1].AllocsPerOp != 1 {
		t.Fatalf("bad parse %+v", bs[1])
	}
	if bs[2].Name != "BenchmarkNoMem" || bs[2].BytesPerOp != 0 {
		t.Fatalf("bad parse %+v", bs[2])
	}
	if bs[3].Name != "BenchmarkFlapChurnRecompute/patch" || bs[3].Metrics["p99-ns"] != 21684 {
		t.Fatalf("custom metric not parsed: %+v", bs[3])
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	rep := NewBenchReport("baseline", "seed state", []Benchmark{{Name: "BenchmarkX", Iterations: 1, NsPerOp: 2}})
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	s := sb.String()
	for _, want := range []string{`"label": "baseline"`, `"BenchmarkX"`, `"gomaxprocs"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("json missing %s:\n%s", want, s)
		}
	}
}
