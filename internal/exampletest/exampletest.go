// Package exampletest runs the main function of an examples/* program
// inside its package's tests, so the examples are covered by go test
// and their printed results are checked.
package exampletest

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// Run calls main with its default flags and no arguments, and returns
// what it wrote to stdout.
func Run(t testing.TB, main func()) string {
	t.Helper()
	// main defines its flags on the command line set: give it a fresh one
	// (the test binary's flags are parsed already).
	args, set := os.Args, flag.CommandLine
	os.Args = []string{args[0]}
	flag.CommandLine = flag.NewFlagSet(args[0], flag.ExitOnError)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		out <- buf.String()
	}()
	defer func() {
		os.Args, flag.CommandLine, os.Stdout = args, set, stdout
	}()
	main()
	w.Close()
	return <-out
}

// Expect fails t unless out has a line equal to want.
func Expect(t testing.TB, out, want string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if line == want {
			return
		}
	}
	t.Errorf("output has no line %q:\n%s", want, out)
}
