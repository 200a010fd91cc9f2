package main

import "testing"

// TestCheckFlags: what no run can be made of is a usage error, refused before
// a dataset is generated: a count that is not positive, fewer than two
// vectors, a beam narrower than k (-n -5 and -ef 3 -k 10 used to fail only
// after that), an unknown design, and an unknown profile (it used to panic).
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name            string
		profile, design string
		n, nq, k, ef    int
		ok              bool
	}{
		{"defaults", "SIFT", "NDP-ETOpt", 5000, 8, 10, 64, true},
		{"CPU-Base", "SIFT", "CPU-Base", 5000, 8, 10, 64, true},
		{"n 2, ef = k", "SIFT", "NDP-ETOpt", 2, 1, 5, 5, true},
		{"q 0", "SIFT", "NDP-ETOpt", 5000, 0, 10, 64, false},
		{"q negative", "SIFT", "NDP-ETOpt", 5000, -3, 10, 64, false},
		{"k 0", "SIFT", "NDP-ETOpt", 5000, 8, 0, 64, false},
		{"n 1", "SIFT", "NDP-ETOpt", 1, 8, 10, 64, false},
		{"n negative", "SIFT", "NDP-ETOpt", -5, 8, 10, 64, false},
		{"ef below k", "SIFT", "NDP-ETOpt", 5000, 8, 10, 3, false},
		{"unknown design", "SIFT", "NDP-Nope", 5000, 8, 10, 64, false},
		{"unknown profile", "Nope", "NDP-ETOpt", 5000, 8, 10, 64, false},
	} {
		p, d, err := checkFlags(c.profile, c.design, c.n, c.nq, c.k, c.ef)
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && (p.Name != c.profile || d.String() != c.design) {
			t.Errorf("%s: profile %s, design %v; want %s, %s", c.name, p.Name, d, c.profile, c.design)
		}
	}
}
