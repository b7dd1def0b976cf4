package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		format string
		procs  int
		want   string // "" = accepted; else the flag the error must name
	}{
		{"table", 1, ""},
		{"csv", 8, ""},
		{"json", 2, ""},
		{"xml", 1, "-format"},
		{"", 1, "-format"},
		{"table", 0, "-procs"},
		{"table", -2, "-procs"},
	} {
		err := checkFlags(c.format, c.procs)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("checkFlags(%q, %d) = %v, want accepted", c.format, c.procs, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want+":")):
			t.Errorf("checkFlags(%q, %d) = %v, want an error naming %s", c.format, c.procs, err, c.want)
		}
	}
}
