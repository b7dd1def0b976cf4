package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		format      string
		procs, reps int
		want        string // "" = accepted; else the flag the error must name
	}{
		{"table", 1, 1, ""},
		{"csv", 8, 3, ""},
		{"json", 2, 1, ""},
		{"xml", 1, 1, "-format"},
		{"", 1, 1, "-format"},
		{"table", 0, 1, "-procs"},
		{"table", -2, 1, "-procs"},
		{"table", 1, 0, "-bench-repeat"},
	} {
		err := checkFlags(c.format, c.procs, c.reps)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("checkFlags(%q, %d, %d) = %v, want accepted", c.format, c.procs, c.reps, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want+":")):
			t.Errorf("checkFlags(%q, %d, %d) = %v, want an error naming %s", c.format, c.procs, c.reps, err, c.want)
		}
	}
}
