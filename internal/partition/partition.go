// Package partition implements the global data layout across DRAM ranks
// (paper §5.3): vertical partitioning (dimensions split across ranks),
// horizontal partitioning (whole vectors per rank), and the hybrid scheme
// that splits each vector into sub-vectors of size S assigned to one rank
// group, then distributes vectors across rank groups. It also implements
// hot-vector replication driven by index-structure hints.
//
// Early termination changes the partitioning tradeoff: a rank can only
// terminate locally, by comparing its own partial distance against the full
// threshold, so splitting a vector across R ranks inflates a rejected
// vector's traffic from nf lines to ~min(L, R·nf).
// AppendFetchedPerSegment encodes exactly this model (see DESIGN.md).
package partition

import (
	"fmt"

	"ansmet/internal/dram"
)

// Scheme selects the partitioning strategy.
type Scheme int

const (
	// Horizontal keeps each vector whole in one rank.
	Horizontal Scheme = iota
	// Vertical splits every vector across all ranks.
	Vertical
	// Hybrid splits vectors into S-byte sub-vectors within a rank group.
	Hybrid
)

var schemeNames = [...]string{"horizontal", "vertical", "hybrid"}

func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemeNames[s]
}

// Map is the immutable vector→rank placement for one dataset.
type Map struct {
	linesPerVector int
	segLines       int // lines per segment (last segment may be shorter)
	numSegs        int
	groups         int // rank groups; group g owns ranks [g*numSegs, (g+1)*numSegs)
	banksPerRank   int
	rowLines       int

	replicated map[uint32]bool
}

// New builds a placement map. subVectorBytes is only used by Hybrid (the
// paper's default and best value is 1 kB).
func New(scheme Scheme, ranks, linesPerVector, subVectorBytes, banksPerRank, rowBytes int) (*Map, error) {
	if ranks <= 0 || linesPerVector <= 0 || banksPerRank <= 0 || rowBytes < 64 {
		return nil, fmt.Errorf("partition: invalid geometry (ranks=%d lines=%d banks=%d row=%d)",
			ranks, linesPerVector, banksPerRank, rowBytes)
	}
	m := &Map{
		linesPerVector: linesPerVector, banksPerRank: banksPerRank, rowLines: rowBytes / 64,
		replicated: map[uint32]bool{},
	}
	switch scheme {
	case Horizontal:
		m.segLines = linesPerVector
		m.numSegs = 1
	case Vertical:
		m.numSegs = ranks
		if m.numSegs > linesPerVector {
			m.numSegs = linesPerVector
		}
		m.segLines = (linesPerVector + m.numSegs - 1) / m.numSegs
		// Recompute: with ceil-sized segments fewer may be needed.
		m.numSegs = (linesPerVector + m.segLines - 1) / m.segLines
	case Hybrid:
		if subVectorBytes < 64 {
			return nil, fmt.Errorf("partition: sub-vector size %d B below line size", subVectorBytes)
		}
		m.segLines = subVectorBytes / 64
		m.numSegs = (linesPerVector + m.segLines - 1) / m.segLines
		if m.numSegs > ranks {
			m.numSegs = ranks
			m.segLines = (linesPerVector + m.numSegs - 1) / m.numSegs
			m.numSegs = (linesPerVector + m.segLines - 1) / m.segLines
		}
	default:
		return nil, fmt.Errorf("partition: unknown scheme %d", scheme)
	}
	m.groups = ranks / m.numSegs
	if m.groups == 0 {
		m.groups = 1
	}
	return m, nil
}

// NumSegments returns how many rank-resident segments one vector has.
func (m *Map) NumSegments() int { return m.numSegs }

// Groups returns the number of rank groups (vectors are distributed across
// groups; replicated vectors exist in every group).
func (m *Map) Groups() int { return m.groups }

// SegLines returns the line count of segment seg.
func (m *Map) SegLines(seg int) int {
	if seg < 0 || seg >= m.numSegs {
		panic(fmt.Sprintf("partition: segment %d out of %d", seg, m.numSegs))
	}
	if seg == m.numSegs-1 {
		rem := m.linesPerVector - seg*m.segLines
		return rem
	}
	return m.segLines
}

// GroupOf returns the home rank group of vector id.
func (m *Map) GroupOf(id uint32) int { return int(id) % m.groups }

// RankFor returns the rank holding segment seg of vectors homed (or
// replicated) in the given group.
func (m *Map) RankFor(group, seg int) int {
	if group < 0 || group >= m.groups || seg < 0 || seg >= m.numSegs {
		panic(fmt.Sprintf("partition: (group=%d seg=%d) out of range", group, seg))
	}
	return group*m.numSegs + seg
}

// SetReplicated marks the given vectors as replicated to every rank group
// (the paper replicates the top HNSW layers / IVF centroids).
func (m *Map) SetReplicated(ids []uint32) {
	for _, id := range ids {
		m.replicated[id] = true
	}
}

// IsReplicated reports whether id exists in every rank group.
func (m *Map) IsReplicated(id uint32) bool { return m.replicated[id] }

// ReplicatedCount returns how many vectors are replicated. No product code
// reads it: it is the oracle internal/sim's TestReplicationWiredIntoSystem
// checks the model's top-layer replication against.
func (m *Map) ReplicatedCount() int { return len(m.replicated) }

// Addr maps (vector, group, segment, line) to a physical DRAM address.
// Lines of one segment are contiguous within a bank so that a sequential
// task fetch enjoys row-buffer hits.
func (m *Map) Addr(id uint32, group, seg, line int) dram.Addr {
	if line < 0 || line >= m.SegLines(seg) {
		panic(fmt.Sprintf("partition: line %d out of segment %d (len %d)", line, seg, m.SegLines(seg)))
	}
	rank := m.RankFor(group, seg)
	local := int(id) / m.groups // index of this vector within its group's ranks
	bankID := local % m.banksPerRank
	vecInBank := local / m.banksPerRank
	lineIdx := vecInBank*m.segLines + line
	return dram.Addr{Rank: rank, Bank: bankID, Row: int64(lineIdx / m.rowLines)}
}

// AppendFetchedPerSegment converts a comparison's local-termination line
// position (nfLocal, from the functional ET execution run against the
// per-rank threshold — engine.Result.LinesLocal) into per-segment fetch
// counts, appended to dst:
//
//   - full fetches (accepted, or never locally terminated) load every
//     segment completely, in parallel across the group's ranks;
//   - locally terminated fetches load ⌈nfLocal/segments⌉ lines per segment:
//     each rank holds 1/segments of the dimensions, so it reaches the
//     equivalent bit depth of nfLocal sequential lines after that many of
//     its own lines (§5.3: local ET has "reduced effectiveness", captured
//     by nfLocal >= the sequential termination position).
//
// It returns the extended slice; the simulator's hot path passes a reused
// scratch slice.
func (m *Map) AppendFetchedPerSegment(dst []int, nfLocal int, fullFetch bool) []int {
	per := (nfLocal + m.numSegs - 1) / m.numSegs
	for s := 0; s < m.numSegs; s++ {
		segLen := m.SegLines(s)
		if fullFetch || nfLocal >= m.linesPerVector || per > segLen {
			dst = append(dst, segLen)
		} else {
			dst = append(dst, per)
		}
	}
	return dst
}

// LinesPerVector returns the vector footprint in lines.
func (m *Map) LinesPerVector() int { return m.linesPerVector }

// Locate maps a global line index (in sequential fetch order) to its
// (segment, offset-within-segment) coordinates.
func (m *Map) Locate(line int) (seg, off int) {
	if line < 0 || line >= m.linesPerVector {
		panic(fmt.Sprintf("partition: line %d out of %d", line, m.linesPerVector))
	}
	return line / m.segLines, line % m.segLines
}
