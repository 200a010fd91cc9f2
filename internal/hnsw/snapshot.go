package hnsw

import (
	"fmt"

	"ansmet/internal/rows"
	"ansmet/internal/vecmath"
)

// Snapshot is the serializable form of a built index (the graph topology
// and construction parameters; vector data is stored by the caller).
type Snapshot struct {
	Cfg       Config
	Metric    vecmath.Metric
	Levels    []int
	Neighbors [][][]uint32
	Entry     uint32
	MaxLevel  int
}

// Snapshot exports the index state. The wire form keeps every level in one
// [node][level] nest; level 0 is assembled from the blocks (sub-slices, not
// copies: the snapshot is read-only and, on a live index, must be taken and
// encoded under the writer's lock, as Database.Save does).
func (ix *Index) Snapshot() *Snapshot {
	headers := 0
	for _, lvl := range ix.levels {
		headers += lvl + 1
	}
	lists := make([][]uint32, headers) // every node's list headers, one allocation
	neighbors := make([][][]uint32, len(ix.levels))
	for i, lvl := range ix.levels {
		neighbors[i], lists = lists[:lvl+1:lvl+1], lists[lvl+1:]
		for l := range neighbors[i] {
			neighbors[i][l] = ix.adj.list(uint32(i), l)
		}
	}
	return &Snapshot{
		Cfg:       ix.cfg,
		Metric:    ix.metric,
		Levels:    ix.levels,
		Neighbors: neighbors,
		Entry:     ix.entry,
		MaxLevel:  ix.maxLevel,
	}
}

// FromSnapshot reconstructs an index over the given slab, whose rows must be
// the exact population the snapshot was built from. A snapshot
// comes from a file, so everything the index will later trust without
// looking is checked here: the construction parameters (a live index
// inserts with them), the level structure (a search walks MaxLevel layers),
// every list's length (level 0 is packed into MaxDegree-wide blocks) and
// every edge's target.
func FromSnapshot(rs *rows.Slab, s *Snapshot) (*Index, error) {
	n := rs.Len()
	if n != len(s.Levels) || n != len(s.Neighbors) {
		return nil, fmt.Errorf("hnsw: snapshot covers %d nodes, vectors %d", len(s.Levels), n)
	}
	if err := s.Cfg.validate(); err != nil {
		return nil, fmt.Errorf("hnsw: snapshot Cfg: %w", err)
	}
	if s.Metric < vecmath.L2 || s.Metric > vecmath.Cosine {
		return nil, fmt.Errorf("hnsw: snapshot Metric %d is not a metric", int(s.Metric))
	}
	if int(s.Entry) >= n {
		return nil, fmt.Errorf("hnsw: snapshot entry %d out of range", s.Entry)
	}
	if s.MaxLevel != s.Levels[s.Entry] {
		return nil, fmt.Errorf("hnsw: snapshot MaxLevel %d is not the level %d of its entry node %d", s.MaxLevel, s.Levels[s.Entry], s.Entry)
	}
	adj := adjacency{
		base:  blocks{stride: 1 + s.Cfg.MaxDegree}.grown(n),
		upper: make([][][]uint32, n),
	}
	for i, nbs := range s.Neighbors {
		if s.Levels[i] < 0 || s.Levels[i] > s.MaxLevel {
			return nil, fmt.Errorf("hnsw: snapshot Levels[%d] = %d outside [0, MaxLevel %d]", i, s.Levels[i], s.MaxLevel)
		}
		if len(nbs) != s.Levels[i]+1 {
			return nil, fmt.Errorf("hnsw: node %d has %d levels, expected %d", i, len(nbs), s.Levels[i]+1)
		}
		for l, lst := range nbs {
			if len(lst) > s.Cfg.MaxDegree {
				return nil, fmt.Errorf("hnsw: node %d level %d has %d neighbors, Cfg.MaxDegree is %d", i, l, len(lst), s.Cfg.MaxDegree)
			}
			for _, nb := range lst {
				if int(nb) >= n {
					return nil, fmt.Errorf("hnsw: node %d level %d has edge to %d (out of range)", i, l, nb)
				}
			}
		}
		setList(adj.base.at(uint32(i)), nbs[0])
		if len(nbs) > 1 {
			adj.upper[i] = nbs[1:]
		}
	}
	ix := newIndex(rs, s.Metric, s.Cfg)
	ix.levels, ix.adj, ix.entry, ix.maxLevel = s.Levels, adj, s.Entry, s.MaxLevel
	return ix, nil
}
