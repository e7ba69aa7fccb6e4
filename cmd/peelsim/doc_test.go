package main

import (
	"bytes"
	"strings"
	"testing"

	"peel/internal/doccmd"
)

// TestDocCommands checks every peelsim command line the docs show: its
// subcommand exists, every flag it passes is defined, and every
// experiment it names is in runners. Each line runs through realMain
// with -h where its first positional argument would be, so nothing runs
// past flag parsing.
func TestDocCommands(t *testing.T) {
	cmds, err := doccmd.Find("../..", "peelsim")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("no peelsim command lines found in the docs")
	}
	for _, c := range cmds {
		args, names := helpArgs(c.Args)
		var out, errOut bytes.Buffer
		code := realMain(args, &out, &errOut)
		if code != 2 || strings.Contains(errOut.String(), "flag provided but not defined") ||
			strings.Contains(errOut.String(), "unexpected argument") {
			t.Errorf("%v: exit %d, stderr:\n%s", c, code, errOut.String())
		}
		for _, name := range names {
			if _, ok := runners[strings.ToLower(name)]; !ok && name != "all" {
				t.Errorf("%v: %q is neither a subcommand nor an experiment", c, name)
				break
			}
		}
	}
}

// helpArgs inserts -h into a documented argument list before its first
// positional argument and returns the positionals (experiment names).
// Subcommands take no positionals, so there -h goes last.
func helpArgs(args []string) (withHelp, names []string) {
	if len(args) > 0 && subcommands[args[0]] != nil {
		return append(append([]string{}, args...), "-h"), nil
	}
	i := 0
	for i < len(args) && strings.HasPrefix(args[i], "-") {
		if !strings.Contains(args[i], "=") && !isBoolFlag(args[i]) {
			i++ // the flag's value
		}
		i++
	}
	i = min(i, len(args))
	withHelp = append(append(append([]string{}, args[:i]...), "-h"), args[i:]...)
	return withHelp, args[i:]
}

// isBoolFlag reports whether the top-level flag takes no value, as the
// flag package decides it: only a boolean flag rejects "=x" as an
// invalid boolean value.
func isBoolFlag(flag string) bool {
	var out, errOut bytes.Buffer
	realMain([]string{flag + "=x", "-h"}, &out, &errOut)
	return strings.Contains(errOut.String(), "invalid boolean value")
}
