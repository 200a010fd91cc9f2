package main

import "testing"

// TestCheckFlags: the counts no run can be made of are usage errors — a
// zero -q once looped forever, and a zero -stream printed NaN rows.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name              string
		nq, stream, k, ef int
		ok                bool
	}{
		{"defaults", 32, 96, 10, 60, true},
		{"ef = k", 1, 1, 5, 5, true},
		{"q 0", 0, 96, 10, 60, false},
		{"q negative", -1, 96, 10, 60, false},
		{"stream 0", 32, 0, 10, 60, false},
		{"k 0", 32, 96, 0, 60, false},
		{"ef below k", 32, 96, 10, 9, false},
	} {
		if err := checkFlags(c.nq, c.stream, c.k, c.ef); (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
