package main

import "testing"

// TestCheckFlags: a query count or a result count that is not positive is a
// usage error, and so is a profile that does not exist (it used to panic).
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name    string
		profile string
		nq, k   int
		ok      bool
	}{
		{"defaults", "SIFT", 8, 10, true},
		{"q 0", "SIFT", 0, 10, false},
		{"q negative", "SIFT", -3, 10, false},
		{"k 0", "SIFT", 8, 0, false},
		{"unknown profile", "Nope", 8, 10, false},
	} {
		p, err := checkFlags(c.profile, c.nq, c.k)
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && p.Name != c.profile {
			t.Errorf("%s: profile %s, want %s", c.name, p.Name, c.profile)
		}
	}
}
