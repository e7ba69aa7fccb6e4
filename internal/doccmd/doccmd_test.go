package doccmd

import (
	"reflect"
	"testing"
)

func TestInvocation(t *testing.T) {
	cases := []struct {
		line string
		args []string // nil: not an invocation of peelsim
	}{
		{"go run ./cmd/peelsim -quick fig5  # one figure", []string{"-quick", "fig5"}},
		{"peelsim all", []string{"all"}},
		{"/tmp/peelsim watch -addr 127.0.0.1:7121 -groups ci > /tmp/watch.jsonl & WATCH=$!",
			[]string{"watch", "-addr", "127.0.0.1:7121", "-groups", "ci"}},
		{"go run ./cmd/peelsim loadgen -ops 10 | tail -20", []string{"loadgen", "-ops", "10"}},
		{"go run ./cmd/peelsim", []string{}},
		{"go build -o /tmp/peelsim ./cmd/peelsim", nil},
		{"go run ./cmd/peeld -router", nil},
		{"  service/   peelsim control plane", nil},
	}
	for _, tc := range cases {
		args, ok := invocation("peelsim", tc.line)
		if ok != (tc.args != nil) || (ok && !reflect.DeepEqual(args, tc.args)) {
			t.Errorf("%q: got %q (ok=%v), want %q", tc.line, args, ok, tc.args)
		}
	}
}
