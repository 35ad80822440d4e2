package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/mcdb"
)

// The SAT refiner (mcdb/refine.go, DESIGN.md §15) runs inside the daemon in
// two ways: POST /admin/refine triggers one pass on demand, and StartRefiner
// runs low-intensity passes in the background so a long-lived warm database
// tightens itself toward proven-optimal entries. Passes serialize on
// refineMu — the refiner never holds db.mu while solving, so request traffic
// is unaffected; at most one solver works per daemon.

// RefineRequest is the optional JSON body of POST /admin/refine. A missing
// or empty body runs with defaults.
type RefineRequest struct {
	// Budget is the conflict budget per SAT query (0: server default).
	Budget int64 `json:"budget,omitempty"`
	// WorstN refines only the N widest-gap entries (0: all candidates).
	WorstN int `json:"worst_n,omitempty"`
	// Reprove re-derives proofs for entries already proven optimal.
	Reprove bool `json:"reprove,omitempty"`
}

// RefineResponse is the JSON body of POST /admin/refine.
type RefineResponse struct {
	mcdb.RefineReport
	DurationMS float64 `json:"duration_ms"`
}

// RefineInfo is the refiner section of GET /admin/dbinfo.
type RefineInfo struct {
	// Runs counts completed passes, admin-triggered and background alike.
	Runs int64 `json:"runs_total"`
	// Background reports whether StartRefiner is active.
	Background bool `json:"background"`
	// LastReport is the most recent pass's outcome.
	LastReport *mcdb.RefineReport `json:"last_report,omitempty"`
	// LastRun is when that pass finished.
	LastRun time.Time `json:"last_run,omitzero"`
}

// refineRun records one finished pass for /admin/dbinfo.
type refineRun struct {
	report mcdb.RefineReport
	at     time.Time
}

// refineInfo assembles the dbinfo section; nil when the refiner has never
// run and no background loop is active, so old clients see no new field.
func (s *Server) refineInfo() *RefineInfo {
	runs := s.refineRuns.Load()
	bg := s.refineBG.Load()
	if runs == 0 && !bg {
		return nil
	}
	info := &RefineInfo{Runs: runs, Background: bg}
	if last := s.lastRefine.Load(); last != nil {
		rep := last.report
		info.LastReport = &rep
		info.LastRun = last.at
	}
	return info
}

// refine runs one serialized pass and records it. Concurrent callers queue
// on refineMu; the HTTP handler avoids queueing via TryLock instead.
func (s *Server) refine(ctx context.Context, opts mcdb.RefineOptions) (mcdb.RefineReport, time.Duration) {
	s.refineMu.Lock()
	defer s.refineMu.Unlock()
	return s.refineLocked(ctx, opts)
}

func (s *Server) refineLocked(ctx context.Context, opts mcdb.RefineOptions) (mcdb.RefineReport, time.Duration) {
	start := time.Now()
	rep := s.cfg.DB.Refine(ctx, opts)
	d := time.Since(start)
	s.refineRuns.Add(1)
	s.lastRefine.Store(&refineRun{report: rep, at: time.Now()})
	s.logf("server: refine: %d/%d entries improved (%d ANDs saved), %d proven, %d unknown, %d rejected in %v",
		rep.Improved, rep.Attempted, rep.AndsSaved, rep.Proven, rep.Unknown, rep.Rejected,
		d.Round(time.Millisecond))
	return rep, d
}

func (s *Server) handleAdminRefine(w http.ResponseWriter, r *http.Request) {
	var req RefineRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.failf(w, http.StatusBadRequest, CodeInvalidRequest, "", "request json: %v", err)
		return
	}
	if req.Budget < 0 {
		s.failf(w, http.StatusBadRequest, CodeInvalidOption, "budget", "budget must not be negative")
		return
	}
	if req.WorstN < 0 {
		s.failf(w, http.StatusBadRequest, CodeInvalidOption, "worst_n", "worst_n must not be negative")
		return
	}
	if !s.refineMu.TryLock() {
		s.failf(w, http.StatusConflict, CodeRefineBusy, "", "a refinement pass is already running")
		return
	}
	defer s.refineMu.Unlock()
	rep, d := s.refineLocked(r.Context(),
		mcdb.RefineOptions{Budget: req.Budget, WorstN: req.WorstN, Reprove: req.Reprove})
	s.met.requests.With("200").Inc()
	writeJSON(w, RefineResponse{
		RefineReport: rep,
		DurationMS:   float64(d.Microseconds()) / 1000,
	})
}

// StartRefiner runs background refinement passes until ctx is canceled:
// every interval (jittered ±50%, like the snapshotter) it refines with the
// given per-query conflict budget. A budget or interval ≤ 0 disables the
// loop — the daemon exposes that as -refine-budget 0. Each pass skips
// entries already proven optimal, so a fully-refined database makes the
// loop a cheap no-op.
func (s *Server) StartRefiner(ctx context.Context, interval time.Duration, budget int64) {
	if interval <= 0 || budget <= 0 {
		return
	}
	s.refineBG.Store(true)
	go func() {
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		timer := time.NewTimer(jitter(rng, interval))
		defer timer.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
			s.refine(ctx, mcdb.RefineOptions{Budget: budget})
			timer.Reset(jitter(rng, interval))
		}
	}()
}
