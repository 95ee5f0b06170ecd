package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestMachineFlags checks that out-of-range machine flags are refused
// with an error before any machine is built, and that the defaults and
// the supported hierarchy switches are accepted.
func TestMachineFlags(t *testing.T) {
	cases := []struct {
		args string
		ok   bool
	}{
		{"", true},
		{"-llc 8", true},
		{"-no-l2", true},
		{"-noninclusive", true},
		{"-llc 3", false},
		{"-llc 0", false},
		{"-bandwidth 0", false},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("pmpsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		machineConfig := machineFlags(fs)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatalf("%q: parse: %v", c.args, err)
		}
		if _, err := machineConfig(); (err == nil) != c.ok {
			t.Errorf("%q: error %v, want accepted = %v", c.args, err, c.ok)
		}
	}
}
