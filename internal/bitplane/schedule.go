// Package bitplane implements the transformed vector data layout of ANSMET
// (paper §4.1–4.2) and the incremental distance lower-bounding that drives
// hybrid partial-dimension/partial-bit early termination.
//
// A vector is stored as a sequence of *bit-plane groups*. Group i carries
// the next n_i most significant code bits of every element, elements laid
// out consecutively and packed into 64-byte lines (m_i = ⌊512/n_i⌋ elements
// per line, with padding at the line end so no element straddles lines —
// exactly the fetch granularity the paper describes). Fetching lines in
// order therefore reveals, for each dimension, a growing most-significant
// prefix of its order-preserving code; after every line a sound distance
// lower bound is available.
package bitplane

import (
	"fmt"

	"ansmet/internal/vecmath"
)

// LineBytes is the DRAM fetch granularity (one 64 B burst).
const LineBytes = 64

// LineBits is the fetch granularity in bits.
const LineBits = LineBytes * 8

// Schedule describes how the bits of each element are split into fetch
// groups. Prefix is the number of most significant code bits eliminated
// from storage by common-prefix elimination (0 when disabled); Steps are
// the per-group bit widths and must sum to ElemBits - Prefix.
type Schedule struct {
	Prefix int
	Steps  []int
}

// Validate checks the schedule against an element type.
func (s Schedule) Validate(elem vecmath.ElemType) error {
	w := elem.Bits()
	if s.Prefix < 0 || s.Prefix >= w {
		return fmt.Errorf("bitplane: prefix %d out of range for %s", s.Prefix, elem)
	}
	if len(s.Steps) == 0 {
		return fmt.Errorf("bitplane: empty schedule")
	}
	sum := 0
	for _, n := range s.Steps {
		if n <= 0 || n > 32 {
			return fmt.Errorf("bitplane: invalid step width %d", n)
		}
		sum += n
	}
	if sum != w-s.Prefix {
		return fmt.Errorf("bitplane: steps sum to %d, want %d (%s minus prefix %d)",
			sum, w-s.Prefix, elem, s.Prefix)
	}
	return nil
}

// PlainSchedule stores each element contiguously at full width — the
// conventional layout used by the Base designs (a single group).
func PlainSchedule(elem vecmath.ElemType) Schedule {
	return Schedule{Steps: []int{elem.Bits()}}
}

// UniformSchedule splits the post-prefix bits into equal steps of the given
// width (the last step absorbs any remainder). step=1 reproduces the
// bit-serial layout of NDP-BitET; 4/8-bit steps are the simple heuristic of
// NDP-ET (§6: 4-bit chunks for integers, 8-bit for floats).
func UniformSchedule(elem vecmath.ElemType, prefix, step int) Schedule {
	rem := elem.Bits() - prefix
	var steps []int
	for rem > 0 {
		n := step
		if n > rem {
			n = rem
		}
		steps = append(steps, n)
		rem -= n
	}
	return Schedule{Prefix: prefix, Steps: steps}
}

// DualSchedule builds the paper's dual-granularity fetch (§4.2): after the
// eliminated prefix, tc coarse steps of nc bits quickly cross the remaining
// low-entropy range, then fine steps of nf bits walk the high-termination
// range. Oversized tails are truncated to fit the element width.
func DualSchedule(elem vecmath.ElemType, prefix, nc, tc, nf int) Schedule {
	rem := elem.Bits() - prefix
	var steps []int
	for i := 0; i < tc && rem > 0; i++ {
		n := nc
		if n > rem {
			n = rem
		}
		steps = append(steps, n)
		rem -= n
	}
	for rem > 0 {
		n := nf
		if n > rem {
			n = rem
		}
		steps = append(steps, n)
		rem -= n
	}
	return Schedule{Prefix: prefix, Steps: steps}
}

// Equal reports whether two schedules are identical.
func (s Schedule) Equal(o Schedule) bool {
	if s.Prefix != o.Prefix || len(s.Steps) != len(o.Steps) {
		return false
	}
	for i := range s.Steps {
		if s.Steps[i] != o.Steps[i] {
			return false
		}
	}
	return true
}

func (s Schedule) String() string {
	return fmt.Sprintf("{prefix=%d steps=%v}", s.Prefix, s.Steps)
}
