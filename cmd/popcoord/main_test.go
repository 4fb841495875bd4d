package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestCommandLinePinned pins popcoord's flags (names, types, defaults and help)
// to testdata/flags.txt, its -h output without the "Usage of" line.
func TestCommandLinePinned(t *testing.T) {
	fs := flag.NewFlagSet("popcoord", flag.ContinueOnError)
	var o options
	o.bind(fs)
	var got strings.Builder
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flags differ from testdata/flags.txt:\n%s\nwant\n%s", got.String(), want)
	}
}
