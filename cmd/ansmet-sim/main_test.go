package main

import "testing"

// TestCheckFlags: the counts no run can be made of are usage errors — a
// zero -q once looped forever, a zero -stream printed NaN rows and a zero -n
// panicked — and so is a profile that does not exist, which panicked too.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name                 string
		profile              string
		n, nq, stream, k, ef int
		ok                   bool
	}{
		{"defaults", "DEEP", 4000, 32, 96, 10, 60, true},
		{"ef = k", "DEEP", 1, 1, 1, 5, 5, true},
		{"q 0", "DEEP", 4000, 0, 96, 10, 60, false},
		{"q negative", "DEEP", 4000, -1, 96, 10, 60, false},
		{"stream 0", "DEEP", 4000, 32, 0, 10, 60, false},
		{"k 0", "DEEP", 4000, 32, 96, 0, 60, false},
		{"ef below k", "DEEP", 4000, 32, 96, 10, 9, false},
		{"n 0", "DEEP", 0, 32, 96, 10, 60, false},
		{"n negative", "DEEP", -5, 32, 96, 10, 60, false},
		{"unknown profile", "Nope", 4000, 32, 96, 10, 60, false},
	} {
		p, err := checkFlags(c.profile, c.n, c.nq, c.stream, c.k, c.ef)
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && p.Name != c.profile {
			t.Errorf("%s: profile %s, want %s", c.name, p.Name, c.profile)
		}
	}
}
