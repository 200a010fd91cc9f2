package main

import (
	"reflect"
	"testing"
)

// TestCheckFlags: an experiment name no job has is a usage error even beside
// one that matches (a misspelt name was silently skipped), and so is a k
// that is not a positive integer (it was silently dropped, and Fig. 6 fell
// back to its default k values). Names match in any case and run in paper
// order.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name, exp, k string
		jobs         []string // nil: every job
		ks           []int
		ok           bool
	}{
		{"defaults", "all", "1,5,10", nil, []int{1, 5, 10}, true},
		{"paper order", "fig11, FIG3", "10", []string{"fig3", "fig11"}, []int{10}, true},
		{"precision", "precision", " 5 , 10", []string{"precision"}, []int{5, 10}, true},
		{"all beside a name", "fig6,all", "1", nil, []int{1}, true},
		{"misspelt beside a match", "fig3,fgi6", "10", nil, nil, false},
		{"unknown alone", "fig2", "10", nil, nil, false},
		{"empty", "", "10", nil, nil, false},
		{"k 0", "fig6", "0", nil, nil, false},
		{"k negative", "fig6", "5,-1", nil, nil, false},
		{"k not a number", "fig3", "abc", nil, nil, false},
		{"k trailing junk", "fig6", "10x", nil, nil, false},
	} {
		run, ks, err := checkFlags(c.exp, c.k)
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		var names []string
		for _, j := range run {
			names = append(names, j.name)
		}
		want := c.jobs
		if want == nil {
			for _, j := range jobs {
				want = append(want, j.name)
			}
		}
		if !reflect.DeepEqual(names, want) || !reflect.DeepEqual(ks, c.ks) {
			t.Errorf("%s: jobs %v, k %v; want %v, %v", c.name, names, ks, want, c.ks)
		}
	}
}
