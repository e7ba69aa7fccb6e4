// Package doccmd extracts the command lines that Markdown documents show
// in fenced code blocks, so a command's own tests can check that every
// documented subcommand and flag still exists.
package doccmd

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Command is one documented invocation of a program.
type Command struct {
	Pos  string   // "file:line" of the invocation
	Args []string // arguments after the program, up to the first shell operator
}

func (c Command) String() string {
	return fmt.Sprintf("%s: %s", c.Pos, strings.Join(c.Args, " "))
}

// docs are the documents, relative to the repository root, whose fenced
// code blocks show commands.
var docs = []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// Find returns every invocation of prog that starts a line inside a fenced
// code block of docs under root. An invocation is prog itself, a path
// ending in "/prog", or "go run ./cmd/prog"; its arguments stop at a
// comment or at the first shell operator (&, |, ;, a redirect).
// Backslash-continued lines are joined first.
func Find(root, prog string) ([]Command, error) {
	var out []Command
	for _, doc := range docs {
		file := filepath.Join(root, doc)
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		fenced, n, start, line := false, 0, 0, ""
		for sc.Scan() {
			n++
			text := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(text), "```") {
				fenced = !fenced
				continue
			}
			if !fenced {
				continue
			}
			if line == "" {
				start = n
			}
			if cont, ok := strings.CutSuffix(text, "\\"); ok {
				line += cont + " "
				continue
			}
			line += text
			if args, ok := invocation(prog, line); ok {
				out = append(out, Command{Pos: fmt.Sprintf("%s:%d", doc, start), Args: args})
			}
			line = ""
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// invocation reports whether line runs prog and, if so, its arguments.
func invocation(prog, line string) ([]string, bool) {
	fields := strings.Fields(line)
	switch {
	case len(fields) >= 3 && fields[0] == "go" && fields[1] == "run" && fields[2] == "./cmd/"+prog:
		fields = fields[3:]
	case len(fields) >= 1 && (fields[0] == prog || strings.HasSuffix(fields[0], "/"+prog)):
		fields = fields[1:]
	default:
		return nil, false
	}
	args := []string{}
	for _, f := range fields {
		if strings.HasPrefix(f, "#") || strings.ContainsAny(f[:1], "&|;<>") || strings.HasPrefix(f, "2>") {
			break
		}
		args = append(args, f)
	}
	return args, true
}
