// Package serve is the long-lived checking service behind cmd/dpserve: an
// HTTP server exposing the dining engine's streaming surfaces — property
// checking, Monte-Carlo trials and sweep grids — over newline-delimited
// JSON, with a fingerprint-keyed cache of explored state spaces so that
// many concurrent clients asking about the same configuration share one
// exploration.
//
// # Endpoints
//
//	POST /v1/check   body: Request   → NDJSON property verdicts
//	POST /v1/trials  body: Request   → NDJSON per-trial results
//	POST /v1/sweep   body: SweepRequest → NDJSON per-scenario aggregates
//	GET  /v1/stats   → one JSON object with cache statistics
//	GET  /healthz    → "ok"
//
// # NDJSON schema
//
// Every response line is one JSON-encoded Event terminated by '\n'. Every
// line of an engine endpoint (/v1/check, /v1/trials) is accountable on its
// own: it carries the request id (client-chosen, or server-assigned
// "r<n>"), a monotonically increasing per-response sequence number, the
// full canonical engine configuration echoed back (Config, including the
// fingerprint the cache keyed on), the cache disposition of the request's
// state space, and the wall-clock milliseconds since the request started.
// Sweep lines carry the echoed sweep configuration (SweepConfig) instead
// of a single engine Config, plus the per-cell scenario identity on every
// scenario line. A consumer can therefore log any single line and later
// reproduce the exact engine (or grid cell) that produced it.
//
// The event kinds, in stream order:
//
//	{"event":"progress", ...}  exploration/run lifecycle notes (Detail)
//	{"event":"result",  "result":  {PropertyResult}}   one per property
//	{"event":"trial",   "trial":   {TrialResult}}      one per trial
//	{"event":"scenario","scenario":{ScenarioResult}}   one per sweep cell
//	{"event":"error",   "error":"..."}                 terminal failure
//	{"event":"done",    ...}   totals: states, transitions, elapsed_ms
//
// # Admission control
//
// With Options.MaxRequestStates set (dpserve -max-request-states), /v1/check
// requests are admitted only when their engine carries a max_states bound at
// or under the cap; unbounded requests and requests over the cap are
// rejected with HTTP 422 and a single structured error line before any
// exploration starts. Malformed requests stay 400 — the codes separate
// "fix your request" from "ask for less".
//
// The payload wire formats (PropertyResult, TrialResult, ScenarioResult,
// counterexample traces) are exactly the dining package's stable JSON
// formats — the same bytes dpcheck -json and dpsim -json emit — and the
// envelope is golden-pinned in testdata.
//
// # Fingerprints and the state-space cache
//
// The cache key of an explored state space is dining.Engine.Fingerprint():
// a versioned hash of the canonical engine configuration (topology
// structure, algorithm and options, scheduler, seed, bounds, trial count,
// fairness window, protected set, shard count, canonical fault spec). The
// serve layer deliberately adds nothing to the key and removes nothing
// from it — deriving cache keys from the engine itself is what guarantees
// a key can never drift from engine semantics as options are added. Two
// requests differing only in workers share an entry (results are pinned
// bit-identical for every worker count); any semantic difference, fault
// specs and shard counts included, splits the key.
//
// Concurrent requests for the same fingerprint share one in-flight
// exploration (Cache.Get has singleflight semantics), hot fingerprints are
// served from the LRU without re-exploring, and the cache is bounded by
// total retained state count, evicting least-recently-used spaces first.
// Cached spaces are immutable and safe for any number of concurrent
// readers. Each space also keeps every analysis it has run — the
// predecessor index, the deadlock and dead-region states, the starvation
// trap of each protected set and the shortest path to each counterexample
// target — computed at most once and retained with the entry, so a request
// served from the cache re-runs no analysis: it formats the stored verdicts
// and rebuilds each counterexample trace from its stored path. The one
// exception is lockout-freedom on a symmetry-reduced engine, which
// re-explores the unreduced space on every check; caching that twin would
// hold states outside the cache's state budget.
package serve

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// DefaultCacheStates bounds the cache when Options.CacheStates is zero:
// one million retained states is a few hundred MB with predecessor
// indexes — a deliberate single-node default, tunable with dpserve
// -cache-states.
const DefaultCacheStates = 1 << 20

// Options configures a Server.
type Options struct {
	// CacheStates bounds the state-space cache: the sum of NumStates over
	// retained entries stays at or below it (0 = DefaultCacheStates).
	CacheStates int
	// Workers and Shards are the defaults applied to requests that leave
	// the corresponding field zero (0 = the engine defaults: one worker
	// per CPU, shards matching workers).
	Workers int
	Shards  int
	// MaxRequestStates is the admission cap of /v1/check: a request whose
	// engine state bound (max_states) exceeds the cap — or is absent, i.e.
	// unbounded — is rejected with 422 and a single structured error line
	// before any exploration starts. Zero disables admission control. The
	// cap guards the shared exploration workers of a multi-tenant server;
	// it is deliberately per-request and independent of CacheStates, which
	// only bounds what is retained afterwards.
	MaxRequestStates int
	// BaseContext bounds cache-filling explorations. An exploration runs
	// under this context, not the requesting client's: the explored space
	// outlives any one request, so a client disconnect must not cancel the
	// work other waiters (or future requests) will reuse. Cancel it to
	// abort in-flight explorations at shutdown. Nil means Background.
	BaseContext context.Context
	// Clock substitutes the wall clock for the response timing fields
	// (nil = time.Now). The golden tests pin the wire format with a fixed
	// clock; production servers leave it nil.
	Clock func() time.Time
}

// Server is the checking service: an http.Handler with a shared state-space
// cache. Construct with New; a Server is safe for concurrent use.
type Server struct {
	cache            *Cache
	workers          int
	shards           int
	maxRequestStates int
	base             context.Context
	now              func() time.Time
	mux              *http.ServeMux
	reqSeq           atomic.Int64
}

// New builds a Server with the given options.
func New(opts Options) *Server {
	s := &Server{
		cache:            NewCache(opts.CacheStates),
		workers:          opts.Workers,
		shards:           opts.Shards,
		maxRequestStates: opts.MaxRequestStates,
		base:             opts.BaseContext,
		now:              opts.Clock,
	}
	if s.base == nil {
		s.base = context.Background()
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/check", s.handleCheck)
	s.mux.HandleFunc("POST /v1/trials", s.handleTrials)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// requestID returns the client-chosen id, or assigns "r<n>" when empty.
func (s *Server) requestID(client string) string {
	if client != "" {
		return client
	}
	return "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
}
