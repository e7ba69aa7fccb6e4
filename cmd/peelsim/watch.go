package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"peel/internal/service/wire"
)

// watchMain implements `peelsim watch`: subscribe to groups over a
// daemon's wire protocol and print one JSON line per pushed tree update —
// the CLI face of the push path (CI's kill-and-reconnect smoke drives
// it). Exit codes: 0 done (count reached, timeout elapsed, or interrupt),
// 1 connection failure, 2 usage error.
func watchMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("peelsim watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "wire-protocol address of the daemon (required; see peeld -wire-addr)")
	groups := fs.String("groups", "", "comma-separated group IDs to subscribe to (required)")
	count := fs.Int("count", 0, "exit after N updates (0 = run until -timeout or interrupt)")
	timeout := fs.Duration("timeout", 0, "exit after this long (0 = no limit)")
	reconnect := fs.Bool("reconnect", false, "redial and re-subscribe after a broken connection")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "peelsim watch: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	gids := strings.FieldsFunc(*groups, func(r rune) bool { return r == ',' })
	if *addr == "" || len(gids) == 0 {
		fmt.Fprintf(stderr, "peelsim watch: -addr and -groups are required\n")
		fs.Usage()
		return 2
	}

	c, err := wire.Dial(*addr, wire.ClientOptions{Reconnect: *reconnect})
	if err != nil {
		fmt.Fprintf(stderr, "peelsim watch: %v\n", err)
		return 1
	}
	defer c.Close()
	for _, gid := range gids {
		if err := c.Subscribe(gid); err != nil {
			fmt.Fprintf(stderr, "peelsim watch: subscribe %q: %v\n", gid, err)
			return 1
		}
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// One JSON line per update, flushed as it arrives so pipelines and the
	// CI smoke can tail the stream.
	type updateJSON struct {
		Group   string            `json:"group"`
		Gen     uint64            `json:"gen"`
		Seq     uint64            `json:"seq"`
		Source  int32             `json:"source"`
		Edges   int               `json:"edges"`
		Patched bool              `json:"patched,omitempty"`
		Resync  bool              `json:"resync,omitempty"`
		Failure bool              `json:"failure,omitempty"`
		Epoch   bool              `json:"epoch,omitempty"`
		Error   string            `json:"error,omitempty"`
		Stats   *wire.ClientStats `json:"stats,omitempty"`
	}
	enc := json.NewEncoder(stdout)
	seen := 0
	for {
		select {
		case <-ctx.Done():
			st := c.Stats()
			enc.Encode(updateJSON{Group: "", Stats: &st})
			return 0
		case u, ok := <-c.Updates():
			if !ok {
				fmt.Fprintf(stderr, "peelsim watch: connection closed\n")
				return 1
			}
			out := updateJSON{
				Group:   u.Group,
				Gen:     u.Gen,
				Seq:     u.Seq,
				Source:  int32(u.Source),
				Edges:   len(u.Edges),
				Patched: u.Patched(),
				Resync:  u.Resync(),
				Failure: u.FailureDriven(),
				Epoch:   u.EpochDriven(),
			}
			if u.Err != nil {
				out.Error = u.Err.Error()
			}
			enc.Encode(out)
			if u.Err == nil {
				seen++
				if *count > 0 && seen >= *count {
					st := c.Stats()
					enc.Encode(updateJSON{Group: "", Stats: &st})
					return 0
				}
			}
		}
	}
}
