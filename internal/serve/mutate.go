package serve

import (
	"context"
	"net/http"
)

// Mutation endpoints: POST /v1/upsert and POST /v1/delete, registered only
// when the corresponding Config hook is wired (a read-only server keeps
// serving 404 on them). Mutations ride the same machinery as searches —
// drain refusal, admission control, body-size limits, per-request
// deadlines, panic containment — because an overloaded or draining server
// must shed writes for exactly the reasons it sheds reads. An acknowledged
// mutation (HTTP 200) has been fsynced to the journal by the backend
// before the hook returns; a shed or failed one was never applied.

// UpsertFunc applies an insert (hasID false: the backend assigns the id)
// or an in-place replacement (hasID true) and returns the id now holding
// the vector. The returned id differs from the given one on replacement —
// updates are add-new-tombstone-old underneath. vec is the callee's:
// allocated per request and never reused by serve (see SearchFunc).
type UpsertFunc func(ctx context.Context, id uint32, hasID bool, vec []float32) (uint32, error)

// DeleteFunc tombstones an id.
type DeleteFunc func(ctx context.Context, id uint32) error

// UpsertRequest is the /v1/upsert JSON body. Without an id the vector is
// inserted fresh; with one, it replaces that id's vector.
type UpsertRequest struct {
	ID     *uint32   `json:"id,omitempty"`
	Vector []float32 `json:"vector"`
	// TimeoutMs overrides the server's default per-request deadline,
	// capped at Config.MaxTimeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// UpsertResponse reports the id now holding the vector.
type UpsertResponse struct {
	ID    uint32 `json:"id"`
	Error string `json:"error,omitempty"`
}

// DeleteRequest is the /v1/delete JSON body.
type DeleteRequest struct {
	ID        *uint32 `json:"id"`
	TimeoutMs int     `json:"timeout_ms,omitempty"`
}

// DeleteResponse acknowledges a tombstoned id.
type DeleteResponse struct {
	Deleted bool   `json:"deleted"`
	Error   string `json:"error,omitempty"`
}

// mutationTimedOut is the mutations' 504 body (see writeError).
var mutationTimedOut = SearchResponse{Error: "mutation deadline exceeded"}

func (s *Server) handleUpsert(w http.ResponseWriter, r *http.Request) {
	var req UpsertRequest
	buf, release := s.admit(w, r, &req)
	if buf == nil {
		return
	}
	// The slot is held across the apply: -concurrency and the queue bound
	// concurrent journalled writes as they bound searches.
	defer release()
	putBuf(buf) // the vector was copied out of it
	if len(req.Vector) == 0 {
		s.metrics.BadRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, UpsertResponse{Error: "missing vector"})
		return
	}
	ctx, cancel, stop := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	defer stop()
	var (
		id  uint32
		err error
	)
	if req.ID != nil {
		id, err = s.cfg.Upsert(ctx, *req.ID, true, req.Vector)
	} else {
		id, err = s.cfg.Upsert(ctx, 0, false, req.Vector)
	}
	if err != nil {
		s.writeError(w, r, err, mutationTimedOut)
		return
	}
	s.metrics.OK.Add(1)
	s.metrics.Upserts.Add(1)
	writeJSON(w, http.StatusOK, UpsertResponse{ID: id})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	buf, release := s.admit(w, r, &req)
	if buf == nil {
		return
	}
	defer release()
	putBuf(buf)
	if req.ID == nil {
		s.metrics.BadRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, DeleteResponse{Error: "missing id"})
		return
	}
	ctx, cancel, stop := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	defer stop()
	if err := s.cfg.Delete(ctx, *req.ID); err != nil {
		s.writeError(w, r, err, mutationTimedOut)
		return
	}
	s.metrics.OK.Add(1)
	s.metrics.Deletes.Add(1)
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: true})
}
