package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/dining"
)

// maxBodyBytes bounds request bodies; the JSON configs are tiny.
const maxBodyBytes = 1 << 20

// Request is the body of /v1/check and /v1/trials: the engine configuration
// in registry names and numbers, mirroring the dpcheck/dpsim flags. Zero
// values mean the engine defaults, except Workers and Shards, which fall
// back to the server-wide defaults first (dpserve -workers/-shards).
// Negative numbers are rejected, as dining.New rejects them.
type Request struct {
	// ID is the client-chosen request id echoed on every response line
	// (empty = server-assigned).
	ID string `json:"id,omitempty"`
	// Topology and N select and size the topology (registry name).
	Topology string `json:"topology"`
	N        int    `json:"n,omitempty"`
	// Algorithm and Scheduler are registry names (scheduler "" = default).
	Algorithm string `json:"algorithm"`
	Scheduler string `json:"scheduler,omitempty"`
	// Props selects the properties /v1/check runs (empty = the exhaustive
	// built-ins). Ignored by /v1/trials.
	Props []string `json:"props,omitempty"`
	// Trials is the trial count for /v1/trials (0 = 1). Ignored by /v1/check.
	Trials int `json:"trials,omitempty"`
	// Seed, MaxSteps, MaxStates, FairnessWindow, Protected, M and Faults
	// configure the engine as the same-named dpcheck flags do. Faults is a
	// fault-model spec name[:rates][@philosophers] — e.g. "crash-rejoin:0.1,0.5",
	// "freeze:0.2@1", "lossy-grants:0.3" or "delayed-grants:p,k@phils" with
	// injection rate p and maximum in-flight delay k — and joins the
	// fingerprint in canonical form, so faulty and fault-free explorations
	// of one instance never share a cache entry.
	Seed           uint64          `json:"seed,omitempty"`
	MaxSteps       int64           `json:"max_steps,omitempty"`
	MaxStates      int             `json:"max_states,omitempty"`
	FairnessWindow int64           `json:"fairness_window,omitempty"`
	Protected      []dining.PhilID `json:"protected,omitempty"`
	M              int             `json:"m,omitempty"`
	Faults         string          `json:"faults,omitempty"`
	// Symmetry quotients the exploration by the topology's automorphism
	// group (dining.WithSymmetry): verdicts are identical to the unreduced
	// engine, state counts are per-orbit, and the fingerprint (hence the
	// cache key) differs from the unreduced configuration.
	Symmetry bool `json:"symmetry,omitempty"`
	// Workers and Shards override the server defaults (0 = server default,
	// which itself defaults to the engine's one-per-CPU). Neither changes
	// any result — both are pinned bit-identical knobs.
	Workers int `json:"workers,omitempty"`
	Shards  int `json:"shards,omitempty"`
}

// engine assembles the request into a dining engine, applying the server's
// worker/shard defaults to unset fields.
func (s *Server) engine(req *Request) (*dining.Engine, error) {
	topo, err := dining.NewTopology(req.Topology, req.N)
	if err != nil {
		return nil, err
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.workers
	}
	shards := req.Shards
	if shards == 0 {
		shards = s.shards
	}
	opts := []dining.Option{
		dining.WithSeed(req.Seed),
		dining.WithWorkers(workers),
		dining.WithShards(shards),
		dining.WithMaxSteps(req.MaxSteps),
		dining.WithMaxStates(req.MaxStates),
		dining.WithTrials(req.Trials),
		dining.WithFairnessWindow(req.FairnessWindow),
		dining.WithAlgorithmOptions(dining.AlgorithmOptions{M: req.M}),
	}
	if len(req.Protected) > 0 {
		opts = append(opts, dining.WithProtected(req.Protected...))
	}
	if req.Scheduler != "" {
		opts = append(opts, dining.WithScheduler(req.Scheduler))
	}
	if req.Faults != "" {
		opts = append(opts, dining.WithFaults(req.Faults))
	}
	if req.Symmetry {
		opts = append(opts, dining.WithSymmetry())
	}
	return dining.New(topo, req.Algorithm, opts...)
}

// TopologySpec names one topology of a sweep grid.
type TopologySpec struct {
	Name string `json:"name"`
	N    int    `json:"n,omitempty"`
}

// SweepRequest is the body of /v1/sweep: the grid axes of dining.Sweep in
// registry names. Topologies and Algorithms are required; the other axes
// default as dining.Sweep documents (schedulers: random; faults: the
// no-fault cell; trials: 10).
type SweepRequest struct {
	// ID is the client-chosen request id (empty = server-assigned).
	ID string `json:"id,omitempty"`
	// Topologies, Algorithms, Schedulers and Faults are the grid axes.
	Topologies []TopologySpec `json:"topologies"`
	Algorithms []string       `json:"algorithms"`
	Schedulers []string       `json:"schedulers,omitempty"`
	Faults     []string       `json:"faults,omitempty"`
	// Trials, MaxSteps, Seed, M and FairnessWindow configure every cell.
	Trials         int    `json:"trials,omitempty"`
	MaxSteps       int64  `json:"max_steps,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
	M              int    `json:"m,omitempty"`
	FairnessWindow int64  `json:"fairness_window,omitempty"`
	// Workers bounds the scenario goroutines (0 = server default).
	Workers int `json:"workers,omitempty"`
}

// SweepConfig is the configuration echo of sweep response lines: the grid
// as the server expanded it, scenario count included, so any one scenario
// line plus its echo reproduces the whole matrix cell.
type SweepConfig struct {
	Topologies     []TopologySpec `json:"topologies"`
	Algorithms     []string       `json:"algorithms"`
	Schedulers     []string       `json:"schedulers,omitempty"`
	Faults         []string       `json:"faults,omitempty"`
	Scenarios      int            `json:"scenarios"`
	Trials         int            `json:"trials"`
	MaxSteps       int64          `json:"max_steps,omitempty"`
	Seed           uint64         `json:"seed"`
	M              int            `json:"m,omitempty"`
	FairnessWindow int64          `json:"fairness_window,omitempty"`
	Workers        int            `json:"workers,omitempty"`
}

// sweep assembles the request into a dining.Sweep, resolving topologies.
func (s *Server) sweep(req *SweepRequest) (dining.Sweep, error) {
	if len(req.Topologies) == 0 {
		return dining.Sweep{}, fmt.Errorf("sweep needs at least one topology")
	}
	if len(req.Algorithms) == 0 {
		return dining.Sweep{}, fmt.Errorf("sweep needs at least one algorithm")
	}
	topos := make([]*dining.Topology, len(req.Topologies))
	for i, spec := range req.Topologies {
		topo, err := dining.NewTopology(spec.Name, spec.N)
		if err != nil {
			return dining.Sweep{}, err
		}
		topos[i] = topo
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.workers
	}
	return dining.Sweep{
		Topologies:       topos,
		Algorithms:       req.Algorithms,
		Schedulers:       req.Schedulers,
		Faults:           req.Faults,
		Trials:           req.Trials,
		MaxSteps:         req.MaxSteps,
		Seed:             req.Seed,
		Workers:          workers,
		AlgorithmOptions: dining.AlgorithmOptions{M: req.M},
		FairnessWindow:   req.FairnessWindow,
	}, nil
}

// decodeBody decodes a JSON request body strictly: unknown fields are
// errors, so a typo'd knob fails loudly instead of silently running the
// default configuration.
func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
