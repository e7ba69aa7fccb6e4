package main

import (
	"context"
	"strings"
	"testing"

	"peel/internal/doccmd"
)

// TestDocCommands checks every peeld command line the docs show: each
// flag it passes is defined. peeld takes no positional arguments, so -h
// goes last and nothing runs past flag parsing.
func TestDocCommands(t *testing.T) {
	cmds, err := doccmd.Find("../..", "peeld")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("no peeld command lines found in the docs")
	}
	for _, c := range cmds {
		var out, errOut strings.Builder
		code := realMain(context.Background(), append(append([]string{}, c.Args...), "-h"), &out, &errOut)
		if code != 2 || strings.Contains(errOut.String(), "flag provided but not defined") ||
			strings.Contains(errOut.String(), "unexpected argument") {
			t.Errorf("%v: exit %d, stderr:\n%s", c, code, errOut.String())
		}
	}
}
