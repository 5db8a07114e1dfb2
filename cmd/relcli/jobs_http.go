package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/reldash"
)

// jobResponse is the reply document for the /jobs routes. Error/Code
// follow the same taxonomy as solveResponse (draining, too-large,
// bad-spec, unknown-job, terminal, internal).
type jobResponse struct {
	Job   *jobs.Snapshot   `json:"job,omitempty"`
	Jobs  []*jobs.Snapshot `json:"jobs,omitempty"`
	Error string           `json:"error,omitempty"`
	Code  string           `json:"code,omitempty"`
}

// writeJob emits an indented JSON job reply, mirroring solveServer.reply.
func (s *solveServer) writeJob(w http.ResponseWriter, code int, resp jobResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Warn("job response write failed", "err", err)
	}
}

// handleJobSubmit accepts a sweep job document on POST /jobs. A request
// carrying an Idempotency-Key header it has seen before gets the
// existing job back with 200 instead of a duplicate with 201, so clients
// can blindly re-post after a lost response.
func (s *solveServer) handleJobSubmit(w http.ResponseWriter, r *http.Request, ev *obs.WideEvent) *obs.TraceRecord {
	code, resp := s.submitJob(w, r, ev.Corr)
	ev.Status, ev.Code = code, resp.Code
	s.writeJob(w, code, resp)
	return nil
}

// submitJob decides the POST /jobs reply, setting any reply headers.
func (s *solveServer) submitJob(w http.ResponseWriter, r *http.Request, corr string) (int, jobResponse) {
	if s.draining.Load() {
		s.shed.Inc("draining")
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable, jobResponse{Error: "server is draining for shutdown", Code: "draining"}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		resp := jobResponse{Error: err.Error(), Code: "body-read"}
		if maxBytesError(err) {
			resp.Error = fmt.Sprintf("job document exceeds the %d-byte limit", s.cfg.MaxBody)
			resp.Code = "too-large"
		}
		return http.StatusBadRequest, resp
	}
	spec, err := jobs.ParseSpec(body)
	if err != nil {
		return http.StatusBadRequest, jobResponse{Error: err.Error(), Code: "bad-spec"}
	}
	spec.Corr = corr
	snap, created, err := s.jobs.Submit(spec, r.Header.Get("Idempotency-Key"))
	if err != nil {
		code, respCode := jobErrorStatus(err)
		return code, jobResponse{Error: err.Error(), Code: respCode}
	}
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("job submitted",
			"corr", corr, "job", snap.ID, "created", created, "samples", snap.Samples,
			"shards", snap.Shards, "remote", r.RemoteAddr)
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	if !created {
		return http.StatusOK, jobResponse{Job: snap}
	}
	return http.StatusCreated, jobResponse{Job: snap}
}

// handleJobGet answers GET /jobs/{id} with the job's live snapshot —
// progress while running, the folded result once done.
func (s *solveServer) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		code, respCode := jobErrorStatus(err)
		s.writeJob(w, code, jobResponse{Error: err.Error(), Code: respCode})
		return
	}
	s.writeJob(w, http.StatusOK, jobResponse{Job: snap})
}

// handleJobList answers GET /jobs with every known job, including
// terminal history replayed from the checkpoint directory.
func (s *solveServer) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.List()
	if list == nil {
		list = []*jobs.Snapshot{}
	}
	s.writeJob(w, http.StatusOK, jobResponse{Jobs: list})
}

// handleJobCancel stops a running job on DELETE /jobs/{id} and returns
// its terminal snapshot. Canceling an already-terminal job is a 409 so
// retried deletes are distinguishable from races.
func (s *solveServer) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	corr := s.corrStamp(w, r)
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		code, respCode := jobErrorStatus(err)
		s.writeJob(w, code, jobResponse{Error: err.Error(), Code: respCode})
		return
	}
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("job canceled", "corr", corr, "job", snap.ID, "remote", r.RemoteAddr)
	}
	s.writeJob(w, http.StatusOK, jobResponse{Job: snap})
}

// jobErrorStatus maps the engine's typed sentinels onto HTTP and the
// machine-readable code taxonomy.
func jobErrorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, jobs.ErrBadSpec):
		return http.StatusBadRequest, "bad-spec"
	case errors.Is(err, jobs.ErrUnknownJob):
		return http.StatusNotFound, "unknown-job"
	case errors.Is(err, jobs.ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, jobs.ErrTerminal):
		return http.StatusConflict, "terminal"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// jobRows flattens the engine's snapshots for the dashboard Jobs panel.
func (s *solveServer) jobRows() []reldash.JobRow {
	list := s.jobs.List()
	rows := make([]reldash.JobRow, 0, len(list))
	for _, j := range list {
		rows = append(rows, reldash.JobRow{
			ID:         j.ID,
			State:      string(j.State),
			Samples:    j.Samples,
			Shards:     j.Shards,
			DoneShards: j.DoneShards,
			Progress:   j.Progress(),
			Retries:    j.Retries,
			Resumed:    j.Resumed,
			Error:      j.Error,
		})
	}
	return rows
}

// jobsHealth summarizes the engine for /healthz.
func (s *solveServer) jobsHealth() healthzJobs {
	h := healthzJobs{Resumed: s.jobsResumed}
	for _, j := range s.jobs.List() {
		h.Known++
		if j.State == jobs.StateRunning {
			h.Active++
		}
	}
	return h
}
