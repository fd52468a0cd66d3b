package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/dining"
)

// contentType is the NDJSON media type of the streaming endpoints.
const contentType = "application/x-ndjson"

// stream bundles the per-request plumbing every streaming handler shares:
// the writer, the request id, the start instant and the echoed config.
type stream struct {
	sw    *streamWriter
	id    string
	start time.Time
	now   func() time.Time
}

// elapsed returns whole milliseconds since the request started.
func (st *stream) elapsed() int64 { return st.now().Sub(st.start).Milliseconds() }

// event stamps the shared accountability fields onto ev and emits it.
func (st *stream) event(ev Event) {
	ev.ID = st.id
	ev.ElapsedMS = st.elapsed()
	st.sw.emit(ev)
}

// begin opens an NDJSON response.
func (s *Server) begin(w http.ResponseWriter, id string) *stream {
	w.Header().Set("Content-Type", contentType)
	return &stream{sw: newStreamWriter(w), id: id, start: s.now(), now: s.now}
}

// reject writes a 400 with a single NDJSON error line — validation failures
// happen before any streaming, so the status code is still settable.
func (s *Server) reject(w http.ResponseWriter, id string, err error) {
	s.rejectStatus(w, id, http.StatusBadRequest, err)
}

// rejectStatus is reject with an explicit status code; admission failures use
// 422 to distinguish a well-formed but inadmissible request from a malformed
// one.
func (s *Server) rejectStatus(w http.ResponseWriter, id string, code int, err error) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(code)
	st := &stream{sw: newStreamWriter(w), id: id, start: s.now(), now: s.now}
	st.event(Event{Event: "error", Error: err.Error()})
}

// admit enforces the server's per-request exploration cap on an assembled
// engine: with -max-request-states set, a /v1/check engine must carry a
// max_states bound at or under the cap. Unbounded requests are rejected too —
// an admission cap that admitted the unbounded default would cap everything
// except the most expensive request.
func (s *Server) admit(eng *dining.Engine) error {
	limit := s.maxRequestStates
	if limit <= 0 {
		return nil
	}
	switch ms := eng.MaxStates(); {
	case ms == 0:
		return fmt.Errorf("admission: request has no max_states bound; this server caps explorations at %d states (-max-request-states)", limit)
	case ms > limit:
		return fmt.Errorf("admission: request max_states %d exceeds this server's cap of %d states (-max-request-states)", ms, limit)
	}
	return nil
}

// handleCheck streams property verdicts. The state space backing the
// exhaustive properties comes from the fingerprint-keyed cache: a hot
// fingerprint is served without re-exploring, concurrent cold requests for
// one fingerprint share a single exploration, and the cache disposition is
// reported on the response's progress line and carried on every line after.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := decodeBody(r, &req); err != nil {
		s.reject(w, s.requestID(req.ID), err)
		return
	}
	id := s.requestID(req.ID)
	eng, err := s.engine(&req)
	if err != nil {
		s.reject(w, id, err)
		return
	}
	props, err := dining.ResolveProperties(req.Props)
	if err != nil {
		s.reject(w, id, err)
		return
	}
	if err := s.admit(eng); err != nil {
		s.rejectStatus(w, id, http.StatusUnprocessableEntity, err)
		return
	}
	exhaustive := false
	for _, p := range props {
		if p.Kind() == dining.ExhaustiveProperty {
			exhaustive = true
			break
		}
	}
	cfg := EngineConfig(eng)
	st := s.begin(w, id)

	var space *dining.StateSpace
	var status Status
	if exhaustive {
		// Explorations run under the server's base context, not the
		// request's: the space outlives this request, and a client
		// disconnect must not cancel work other waiters will reuse.
		space, status, err = s.cache.Get(r.Context(), cfg.Fingerprint,
			func(got Status) {
				st.event(Event{Event: "progress", Config: &cfg, Cache: got,
					Detail: "state space " + string(got)})
			},
			func() (*dining.StateSpace, error) { return eng.Explore(s.base) })
		if err != nil {
			st.event(Event{Event: "error", Config: &cfg, Cache: status, Error: err.Error()})
			return
		}
	} else {
		st.event(Event{Event: "progress", Config: &cfg,
			Detail: "statistical properties only; no exploration"})
	}

	// Properties run sequentially in request order — verdict order is part
	// of the golden-pinned wire format, and the expensive step (the
	// exploration) is already shared above.
	for _, p := range props {
		in := dining.PropertyInput{Engine: eng}
		if p.Kind() == dining.ExhaustiveProperty {
			in.Space = space
		}
		res, err := p.Check(r.Context(), in)
		if err != nil {
			st.event(Event{Event: "error", Config: &cfg, Cache: status, Error: err.Error()})
			return
		}
		st.event(Event{Event: "result", Config: &cfg, Cache: status, Result: &res})
	}
	done := Event{Event: "done", Config: &cfg, Cache: status}
	if space != nil {
		done.States = space.NumStates()
		done.Transitions = space.NumTransitions()
	}
	st.event(done)
}

// handleTrials streams deterministic Monte-Carlo trials — the NDJSON face
// of Engine.Trials. Trials sample runs rather than exploring, so there is
// no cache interaction and no cache field on the lines.
func (s *Server) handleTrials(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := decodeBody(r, &req); err != nil {
		s.reject(w, s.requestID(req.ID), err)
		return
	}
	id := s.requestID(req.ID)
	eng, err := s.engine(&req)
	if err != nil {
		s.reject(w, id, err)
		return
	}
	n := req.Trials
	if n <= 0 {
		n = eng.TrialCount()
	}
	if n <= 0 {
		n = 1 // Engine.Trials runs at least one trial
	}
	cfg := EngineConfig(eng)
	st := s.begin(w, id)
	st.event(Event{Event: "progress", Config: &cfg,
		Detail: fmt.Sprintf("running %d trials", n)})
	for tr, err := range eng.Trials(r.Context(), n) {
		if err != nil {
			st.event(Event{Event: "error", Config: &cfg, Error: err.Error()})
			return
		}
		tr := tr
		st.event(Event{Event: "trial", Config: &cfg, Trial: &tr})
	}
	st.event(Event{Event: "done", Config: &cfg})
}

// handleSweep streams a scenario matrix — the NDJSON face of Sweep.Stream.
// Every line echoes the expanded grid (SweepConfig); each scenario line
// additionally carries its cell's identity inside the payload.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		s.reject(w, s.requestID(req.ID), err)
		return
	}
	id := s.requestID(req.ID)
	sweep, err := s.sweep(&req)
	if err != nil {
		s.reject(w, id, err)
		return
	}
	scenarios, err := sweep.Scenarios()
	if err != nil {
		s.reject(w, id, err)
		return
	}
	cfg := sweepConfig(&req, sweep, len(scenarios))
	st := s.begin(w, id)
	st.event(Event{Event: "progress", SweepConfig: &cfg,
		Detail: fmt.Sprintf("sweep: %d scenarios x %d trials", len(scenarios), cfg.Trials)})
	for res, err := range sweep.Stream(r.Context()) {
		if err != nil {
			st.event(Event{Event: "error", SweepConfig: &cfg, Error: err.Error()})
			return
		}
		res := res
		st.event(Event{Event: "scenario", SweepConfig: &cfg, Scenario: &res})
	}
	st.event(Event{Event: "done", SweepConfig: &cfg})
}

// sweepConfig builds the grid echo with the server's defaults applied, so
// the echo describes the matrix that actually ran.
func sweepConfig(req *SweepRequest, sw dining.Sweep, scenarios int) SweepConfig {
	cfg := SweepConfig{
		Topologies:     req.Topologies,
		Algorithms:     req.Algorithms,
		Schedulers:     req.Schedulers,
		Faults:         req.Faults,
		Scenarios:      scenarios,
		Trials:         req.Trials,
		MaxSteps:       req.MaxSteps,
		Seed:           req.Seed,
		M:              req.M,
		FairnessWindow: req.FairnessWindow,
		Workers:        sw.Workers,
	}
	if len(cfg.Schedulers) == 0 {
		cfg.Schedulers = []string{dining.Random}
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 10
	}
	return cfg
}

// handleStats reports the cache counters as one JSON object.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.cache.Stats())
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}
