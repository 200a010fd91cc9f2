package core

import (
	"fmt"
	"math"
	"reflect"

	"ansmet/internal/bitplane"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/prefixelim"
	"ansmet/internal/rows"
	"ansmet/internal/vecmath"
)

// Store holds one dataset encoded in a transformed early-termination
// layout, plus (when prefix elimination is on) the outlier flags and the
// full-precision backup region — which is the row slab the store was built
// from, shared with the index, not a copy. The store is built once over the
// slab's rows and never changes: a model is a point-in-time copy of a
// database (Database.NewSystem), and nothing is appended to it.
type Store struct {
	Elem   vecmath.ElemType
	Dim    int
	Layout *bitplane.Layout
	Prefix prefixelim.Config

	rows      *rows.Slab // original values (the backup region's content)
	slotLines int        // slotLines*64 bytes of encoded data per vector
	// backupLines is the plain-layout footprint fetched on an outlier
	// re-check.
	backupLines int

	data        []byte // slotLines*64 bytes per vector
	isOutlier   []bool
	numOutliers int
}

// BuildStore encodes all rows of the slab under the given schedule and
// prefix configuration. With prefix elimination disabled (Prefix.PrefixLen
// == 0) every vector takes the normal bit-plane path.
func BuildStore(rs *rows.Slab, sched bitplane.Schedule, prefix prefixelim.Config) (*Store, error) {
	if rs == nil || rs.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	elem, dim, view := rs.Elem(), rs.Dim(), rs.View()
	n := view.Len()
	lay, err := bitplane.NewLayout(elem, dim, sched)
	if err != nil {
		return nil, err
	}
	if prefix.Enabled() {
		prefix.Elem, prefix.Dim = elem, dim
		if err := prefix.Validate(); err != nil {
			return nil, err
		}
		if sched.Prefix != prefix.PrefixLen {
			return nil, fmt.Errorf("core: schedule prefix %d != elimination prefix %d",
				sched.Prefix, prefix.PrefixLen)
		}
	} else if sched.Prefix != 0 {
		return nil, fmt.Errorf("core: schedule has prefix %d but elimination is disabled", sched.Prefix)
	}

	s := &Store{
		Elem: elem, Dim: dim, Layout: lay, Prefix: prefix,
		rows:        rs,
		slotLines:   lay.LinesPerVector(),
		backupLines: rows.Lines(elem, dim),
	}
	if prefix.Enabled() && prefix.OutlierLines() > s.slotLines {
		s.slotLines = prefix.OutlierLines()
	}
	sz := s.slotLines * bitplane.LineBytes
	s.data, s.isOutlier = make([]byte, n*sz), make([]bool, n)
	vals := make([]float32, 0, dim)
	var codes, suffix []uint32
	for i := 0; i < n; i++ {
		vals = view.Decode(uint32(i), vals[:0])
		codes = elem.EncodeVector(vals, codes[:0])
		slot := s.data[i*sz : (i+1)*sz]
		switch {
		case prefix.Enabled() && !prefix.IsNormalVector(codes):
			prefix.EncodeOutlier(codes, slot)
			s.isOutlier[i] = true
			s.numOutliers++
		case prefix.Enabled():
			suffix = prefix.SuffixCodes(codes, suffix[:0])
			lay.Transform(suffix, slot)
		default:
			lay.Transform(codes, slot)
		}
	}
	return s, nil
}

// SlotLines returns the per-vector storage footprint in lines — the line
// count the partitioning map and timing model operate on.
func (s *Store) SlotLines() int { return s.slotLines }

// BackupLines returns the full-precision backup footprint in lines.
func (s *Store) BackupLines() int { return s.backupLines }

// NumOutliers returns how many vectors use the outlier encoding.
func (s *Store) NumOutliers() int { return s.numOutliers }

// Len returns the number of vectors the store encoded.
func (s *Store) Len() int { return len(s.isOutlier) }

// SpaceSavedFraction returns the fraction of payload bits that prefix
// elimination strips from normal vectors (the paper's Table 5 "saved
// space"; e.g. a 3-bit prefix on int8 saves 37.5%). Note that line-granular
// padding can absorb part of this in the physical footprint — compare
// SlotLines against BackupLines for the line-level view.
func (s *Store) SpaceSavedFraction() float64 {
	total := float64(s.Dim * s.Elem.Bits())
	return float64(s.Prefix.SpaceSavedBits()) / total
}

// Depths is the static per-vector fetch depth the adaptive modes read, in
// the bit-plane layout's lines. The simulator's precision.Map is one.
type Depths interface {
	Lines(id uint32) int
}

// depthsOrNil returns d, or nil when d holds a nil pointer: a typed nil
// must mean what nil does, the fixed-depth path.
func depthsOrNil(d Depths) Depths {
	if v := reflect.ValueOf(d); v.Kind() == reflect.Pointer && v.IsNil() {
		return nil
	}
	return d
}

// ETEngine is the early-terminating distance engine over a Store: the
// software model of the NDP distance computing unit (Fig. 5(d)), also used
// by the CPU-ET designs. Not safe for concurrent use; create one per
// worker.
type ETEngine struct {
	store  *Store
	metric vecmath.Metric
	b      *bitplane.Bounder
	ob     *prefixelim.OutlierBounder
	// localSegs is the dimension-split factor of the partitioning scheme;
	// local per-rank termination tests the bound against a threshold
	// scaled for a single rank's share of the contributions (§5.3).
	localSegs int
	// noBackup skips the full-precision re-check of in-bound outlier
	// comparisons, accepting the lossy truncated distance — the paper's
	// Table 5(b) variant that trades accuracy for space.
	noBackup bool
	// prec, precBias and precMargin configure the adaptive mixed-precision
	// Compare mode (SetPrecision): a nil prec keeps the exact semantics.
	prec       Depths
	precBias   int
	precMargin float64
	// knnHeap is the tiered stage-2 re-rank's reusable result heap (a
	// max-heap; scratch, reset per call).
	knnHeap hnsw.Heap
	// tierHeap and tierEntries are the tiered pipeline's reusable stage-1
	// scratch: the running k-smallest-bounds max-heap and the per-id bound
	// table stage 2 heapifies into its visit queue (reset per call).
	tierHeap    hnsw.Heap
	tierEntries []hnsw.Neighbor
	// backup computes an in-bound outlier's re-check distance from its row
	// in the slab; nil without prefix elimination.
	backup *engine.Exact
	// tomb, when non-nil, is the deletion bitmap the exact and tiered
	// scans consult (SetTombstones).
	tomb *rows.TombSet
}

var _ engine.Engine = (*ETEngine)(nil)

// NewETEngine builds an engine for one searcher.
func (s *Store) NewETEngine(metric vecmath.Metric) *ETEngine {
	e := &ETEngine{
		store:     s,
		metric:    metric,
		b:         bitplane.NewBounder(s.Layout, metric, s.Prefix.PrefixVal),
		localSegs: 1,
		knnHeap:   hnsw.Heap{Max: true},
		tierHeap:  hnsw.Heap{Max: true},
	}
	if s.Prefix.Enabled() {
		e.ob = prefixelim.NewOutlierBounder(s.Prefix, metric)
		e.backup = engine.NewExactOver(s.rows, metric)
	}
	return e
}

// SetTombstones installs the deletion bitmap: ExactKNN and the tiered
// stage-1 scan skip tombstoned ids (the beam path filters at the graph
// layer instead). A nil set restores the unfiltered scans.
func (e *ETEngine) SetTombstones(t *rows.TombSet) { e.tomb = t }

// slot returns the encoded bytes of vector id.
func (e *ETEngine) slot(id uint32) []byte {
	sz := e.store.slotLines * bitplane.LineBytes
	return e.store.data[int(id)*sz : (int(id)+1)*sz]
}

// SetNoBackup disables the outlier backup re-check (Table 5(b)): accepted
// outlier comparisons then report the truncated-encoding lower bound as
// their distance, which loses accuracy but saves the backup space and
// accesses.
func (e *ETEngine) SetNoBackup(v bool) { e.noBackup = v }

// SetLocalSegments configures the dimension-split factor used to model
// local per-rank early termination; 1 (the default) means the vector lives
// whole in one rank and local equals global termination.
func (e *ETEngine) SetLocalSegments(n int) {
	if n < 1 {
		n = 1
	}
	e.localSegs = n
}

// localThreshold scales the rejection threshold to the stricter test one
// rank applies to its 1/R share of the contributions: for L2 the partial
// sum of squares must alone exceed threshold², i.e. the equivalent global
// bound is threshold·√R; for IP the partial upper sum must alone drop
// below -threshold, i.e. the global bound must exceed threshold·R. The
// result is clamped to be no looser than the global threshold (negative IP
// thresholds would otherwise invert the ordering).
func (e *ETEngine) localThreshold(th float64) float64 {
	if e.localSegs == 1 {
		return th
	}
	var scaled float64
	switch e.metric {
	case vecmath.L2:
		scaled = th * math.Sqrt(float64(e.localSegs))
	default:
		scaled = th * float64(e.localSegs)
	}
	if scaled < th {
		return th
	}
	return scaled
}

// StartQuery implements engine.Engine.
func (e *ETEngine) StartQuery(q []float32) {
	e.b.ResetQuery(q)
	if e.ob != nil {
		e.ob.ResetQuery(q)
		e.backup.StartQuery(q)
	}
}

// SetPrecision switches the engine into adaptive mixed-precision mode, the
// one input of adaptive fetch depth for Compare and the tiered stage 1: a
// vector fetches its static depth (pm's plus bias lines from the tuner) and
// fetches deeper only while its bound is within margin·|threshold| below the
// threshold. Compare doubles the cap, up to the full vector, for normal
// vectors; outlier-encoded ones keep the exact backup re-check. Rejections
// stay sound and a fully-fetched comparison is bitwise exact, but a
// margin-slack accept reports the partial lower bound as its distance, and
// LinesLocal equals Lines (no local-termination modelling). Stage 1
// escalates every vector, outliers included, once, to its ceiling. ExactKNN
// and the tiered stage 2 always use the exact path. A nil pm (typed or not)
// restores exact semantics and the fixed-depth stage 1.
func (e *ETEngine) SetPrecision(pm Depths, bias int, margin float64) {
	e.prec = depthsOrNil(pm)
	e.precBias = bias
	e.precMargin = margin
}

// staticDepth is vector id's adaptive fetch depth on an encoding `lines`
// lines long (the bit-plane layout, or an outlier's): the map's depth, read
// on the layout's line count and rescaled onto `lines` rounding up, plus the
// bias, clamped to [1, ceil].
func (e *ETEngine) staticDepth(id uint32, lines, ceil int) int {
	total := e.store.Layout.LinesPerVector()
	d := (e.prec.Lines(id)*lines+total-1)/total + e.precBias
	return max(1, min(d, ceil))
}

// inMargin reports whether bound lb lies in the margin window below
// threshold th — a tight top-k margin, where the unseen planes could still
// reorder the candidate, so it is worth fetching deeper; a slack bound
// already settles it.
func (e *ETEngine) inMargin(lb, th float64) bool {
	return lb <= th && lb > th-e.precMargin*math.Abs(th)
}

// Compare implements engine.Engine: it fetches the vector's lines in
// storage order, early-terminating once the bound proves rejection. For
// outlier-encoded vectors an in-bound result triggers the full-precision
// backup re-check, preserving exactness (§4.2). In adaptive mixed-precision
// mode (SetPrecision) normal vectors take the capped-depth escalation path
// instead, whose margin-slack accepts are approximate.
func (e *ETEngine) Compare(id uint32, threshold float64) engine.Result {
	if e.prec != nil && !(e.ob != nil && e.store.isOutlier[id]) {
		return e.compareAdaptive(id, threshold)
	}
	return e.compareExact(id, threshold)
}

// compareExact is the fixed-precision comparison: the exact-result contract
// every invariant-bound caller (ExactKNN, tiered stage 2) pins itself to.
func (e *ETEngine) compareExact(id uint32, threshold float64) engine.Result {
	data := e.slot(id)
	if e.ob != nil && e.store.isOutlier[id] {
		e.ob.Reset()
		lb, lines := e.ob.RunTo(data, threshold, e.ob.Lines())
		if lb > threshold {
			return engine.Result{Dist: lb, Lines: lines, LinesLocal: lines, Outlier: true}
		}
		if e.noBackup {
			// Accept the truncated distance (accuracy-lossy variant).
			return engine.Result{Dist: lb, Accepted: true, Lines: lines, LinesLocal: lines, Outlier: true}
		}
		// In-bound on the lossy encoding: re-check against the backup.
		r := e.backup.Compare(id, threshold)
		return engine.Result{
			Dist: r.Dist, Accepted: r.Accepted,
			Lines: lines, LinesLocal: lines,
			BackupLines: e.store.backupLines, Outlier: true,
		}
	}
	// Global termination, then on to the stricter per-rank local threshold
	// (§5.3), which may need more lines; a line that crosses both is
	// consumed once. The reported bound is the one at the local stop.
	total := e.store.Layout.LinesPerVector()
	e.b.Reset()
	lb, lines := e.b.RunTo(data, threshold, total)
	linesLocal := lines
	if local := e.localThreshold(threshold); !(lb > local) {
		lb, linesLocal = e.b.RunTo(data, local, total)
	}
	if lines < total && lb > threshold {
		return engine.Result{Dist: lb, Lines: lines, LinesLocal: linesLocal}
	}
	// Fully fetched: the bound is the exact distance (normal vectors are
	// losslessly encoded).
	return engine.Result{Dist: lb, Accepted: lb <= threshold, Lines: lines, LinesLocal: linesLocal}
}

// compareAdaptive is the mixed-precision comparison of normal vectors: run
// early termination to the static depth, then double the depth while the
// bound lands inside the margin window.
func (e *ETEngine) compareAdaptive(id uint32, threshold float64) engine.Result {
	data := e.slot(id)
	lim := e.store.Layout.LinesPerVector()
	depth := e.staticDepth(id, lim, lim)
	e.b.Reset()
	lb, lines := e.b.RunTo(data, threshold, depth)
	for lines < lim && e.inMargin(lb, threshold) {
		depth *= 2
		if depth > lim {
			depth = lim
		}
		lb, lines = e.b.RunTo(data, threshold, depth)
	}
	if lines < lim && lb > threshold {
		return engine.Result{Dist: lb, Lines: lines, LinesLocal: lines}
	}
	// Fully fetched (exact, bitwise) or a margin-slack partial accept (the
	// bound stands in for the distance).
	return engine.Result{Dist: lb, Accepted: lb <= threshold, Lines: lines, LinesLocal: lines}
}

// LinesPerVector implements engine.Engine.
func (e *ETEngine) LinesPerVector() int { return e.store.slotLines }

// Metric implements engine.Engine.
func (e *ETEngine) Metric() vecmath.Metric { return e.metric }
