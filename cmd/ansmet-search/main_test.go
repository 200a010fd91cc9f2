package main

import "testing"

// TestCheckFlags: a query count or a result count that is not positive is a
// usage error.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name  string
		nq, k int
		ok    bool
	}{
		{"defaults", 8, 10, true},
		{"q 0", 0, 10, false},
		{"q negative", -3, 10, false},
		{"k 0", 8, 0, false},
	} {
		if err := checkFlags(c.nq, c.k); (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
