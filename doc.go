// Package repro is a production-quality Go reproduction of "On the
// generalized dining philosophers problem" by Oltea Mihaela Herescu and
// Catuscia Palamidessi (PODC 2001): the four algorithms of the paper (LR1,
// LR2, GDP1, GDP2), generalized fork/philosopher topologies, fair and
// adversarial schedulers, a discrete-event simulator, a concurrent goroutine
// runtime, an exhaustive model checker for the paper's theorems, and the
// experiment harness that regenerates every reproduced artifact.
//
// The public entry point for library users is package dining — a v3
// streaming experiment engine built on five open registries (topologies,
// algorithms, schedulers, properties, fault models), functional-options
// construction (dining.New(topo, algo, dining.WithScheduler(...), ...)) and
// incremental result streams (Engine.Trials yields per-trial results as
// workers finish; Sweep crosses topology × algorithm × scheduler × fault
// grids into a streamed scenario matrix). New algorithms, adversaries,
// topologies, properties and fault models plug in with
// dining.RegisterAlgorithm / RegisterScheduler / RegisterTopology /
// RegisterProperty / RegisterFault without touching the core packages.
// dining.Engine is the only code that turns a configuration into a program,
// a scheduler and a run: Run, Trials, Check, Explore, RunConcurrent and
// every row of the experiment suite (dining.Experiments, E-F1 … E-RT) go
// through it. dining.New canonicalizes what it is given: a protected set is
// sorted and stripped of duplicates, so every spelling of one set configures
// one engine, and GDP's number range m is bounded by
// graph.MaxTopologySize (65,536, the largest fork count and so the largest
// default m), because each draw lists all m outcomes.
//
// The property layer is the v3 centerpiece: the paper's claims — deadlock-
// freedom, progress, lockout-freedom, starvation traps (Theorems 1–4) — are
// first-class named checks. Engine.Check(ctx, props...) explores the state
// space once (a parallel breadth-first search whose result is byte-identical
// for every worker count) and streams one PropertyResult per property; every
// exhaustive failure carries a replayable counterexample Trace — the exact
// scheduler-choice path from the initial state into the violating region,
// rendered in the paper's arrow notation and verifiable with
// Engine.ReplayTrace. Statistical built-ins (statistical-progress,
// statistical-lockout) cover instances too large to explore. They,
// Engine.Trials and the experiment suite's Monte-Carlo rows all run on one
// trial harness (internal/verify's Trials), which builds one prototype world
// per batch and recycles each worker's world, run summary and scheduler from
// trial to trial; Engine.Run is the one fresh-world run, and the only one
// that returns its final world.
//
// The fault layer (internal/fault) perturbs the transition system itself:
// a registered fault model — crash-rejoin (a philosopher crashes, drops its
// forks and later re-enters thinking), freeze (a permanent crash),
// lossy-grants (a hungry philosopher's acquire step probabilistically
// no-ops) or delayed-grants (with rate p an acquire step instead puts the
// grant in flight with a remaining-delay counter of at most k; each later
// scheduled step of the would-be holder branches between delivering the
// fork and decrementing the counter, with delivery forced at zero) — wraps
// the algorithm's Program, scaling the base outcomes and appending
// "fault: "-labelled branches into the same reused outcome buffer. Because
// the wrapping happens at the Program seam, the Monte-Carlo simulator and
// the exhaustive model checker see the same perturbed MDP:
// dining.WithFaults("crash-rejoin:0.05,0.5") makes every Run, Trials and
// Check observe identical fault semantics, the recoverable properties
// (progress-under-faults, lockout-freedom-under-faults) check exhaustively
// how far the paper's guarantees survive the perturbation, and failing
// checks produce fault-labelled counterexample traces that Engine.ReplayTrace
// verifies against the same fault spec. Fault state rides in
// previously-always-absent parts of the canonical state key — a crashed
// philosopher occupies one always-zero flag bit, in-flight grants a
// pending-slot suffix appended only when a grant has ever entered flight —
// so a fault-free engine's exploration is byte-identical to one without the
// fault layer, while delayed-grants honestly grows the state space with the
// in-flight message state.
//
// The concurrent goroutine runtime (internal/runtime) runs that same
// program, fault wrapper included: each philosopher goroutine applies
// sampled outcomes to a view of one shared world under its two fork locks
// (one global lock for the baselines with shared globals), drawing every
// outcome — fault branches too — from its own seeded internal/prng stream.
// So Engine.RunConcurrent runs every registered algorithm under every fault
// model with every algorithm option, crash, rejoin and loss rates apply per
// step exactly as in the checker, and a concurrent run's holds, ordered by
// their clock stamps, replay as a path of the explored MDP (the runtime's
// conformance grid checks this under the race detector).
//
// # Architecture
//
// The verification stack is layered; each layer only sees the one below:
//
//	sharded store  →  exploration  →  graphalg analyses  →  properties  →  faults  →  engine  →  serve / CLI
//
// At the bottom, internal/modelcheck deduplicates the explored states in 2^k
// independently-owned shards (dining.WithShards, -shards; 0 = match the
// worker count). Each shard holds its own intern table, key arena and map
// to dense ids; a state lives in the shard selected by the low bits of
// a seedless 64-bit hash of its canonical key, addressed by the packed id
// shard<<25 | local. The intern table is flat and pointer-free — an
// open-addressing array of hash tags and local ids over a chunked byte arena
// of keys — and each successor key is hashed once, for the shard choice and
// every probe. The level-synchronous parallel BFS writes every shard
// from exactly one goroutine per phase — expansion, frontier assembly and
// row-writing are parallel over chunks, interning is parallel over shards —
// so there are no locks and no sequential per-level merge; a state cap cuts
// the final level where a search expanding one state at a time would stop,
// and the kept prefix runs the same phases. The loop is the same at every
// worker count: a phase over one chunk or one shard runs inline. Every state also has a dense id:
// its place in breadth-first discovery order, which is provably the same
// numbering for every (workers, shards) combination, so state counts,
// verdicts, witnesses and counterexample traces never depend on how the
// exploration was parallelized. The transitions live in one CSR table in
// dense order, each level's rows written once into an exactly sized block
// and the blocks sealed into the table when the exploration ends.
//
// The analyses — reachability, deadlock detection, the safety game and
// maximal-end-component computation behind the starvation-trap theorems,
// SCCs, shortest counterexample paths — live in internal/graphalg behind a
// read-only StateView interface (NumStates/NumActions/Rows/Bad; the rows
// hold successors only, since every analysis is qualitative),
// with no dependency on the store layout. Between the view and the analyses
// sits the predecessor-index/worklist layer: a graphalg.PredecessorIndex is
// the CSR form of the explored graph in both directions (the view's forward
// rows, read in place, and the reverse (pred, action) edge occurrences,
// built once in O(E) — in parallel over state chunks), cached on the
// StateSpace, so every property of one Engine.Check run shares it. Over that index every fixpoint analysis is a worklist
// algorithm: dead regions are a reverse BFS, the safety game is an
// attractor (remove a state, visit exactly its predecessors), the
// maximal-end-component loop re-checks only the states whose edges were
// removed, and SCCs are an iterative Tarjan that enumerates edges in place. Analyses draw their mutable state from a
// scratch pool on the index, so they run concurrently with zero per-state
// allocations: lockout-freedom fans one trap analysis per protected
// philosopher across the engine's workers over the one shared index. The
// pre-worklist whole-state-space sweeps are retained verbatim in
// internal/graphalg/graphalgtest as reference oracles; an equivalence grid
// pins that verdicts, witness states and counterexample traces are
// byte-identical across every topology × algorithm cell, truncated runs
// included. internal/trace turns analysis witnesses into replayable
// counterexample traces, the dining property layer packages the analyses as
// registered properties, dining.Engine assembles the (possibly fault-wrapped)
// program, the scheduler and the exploration or run for every caller above
// it — properties, trials, the goroutine runtime and the experiment suite
// alike — and the CLI tools plumb -workers/-shards (and
// -cpuprofile/-memprofile on dpcheck and dpbench) down the stack.
//
// At the top of the stack sits the serve layer (internal/serve, served by
// cmd/dpserve): a long-lived HTTP service exposing the engine's streaming
// surfaces — property checking, Monte-Carlo trials and sweep grids — as
// newline-delimited JSON. Its core is a fingerprint-keyed cache of explored
// state spaces: the cache key is dining.Engine.Fingerprint(), a versioned
// hash of the canonical engine configuration (topology structure, algorithm
// and options, scheduler, seed, bounds, canonical protected set, shard
// count, fault spec — but not the worker count, whose results are pinned
// bit-identical),
// so repeated and concurrent requests about the same configuration share
// one exploration. A retained space also keeps every analysis it has run —
// the predecessor index, the deadlock and dead-region states, each trap and
// each counterexample path, computed at most once per space by
// internal/modelcheck — so a hot request only formats stored verdicts and
// rebuilds their traces. Every response line is accountable: request
// id, the echoed engine configuration, the cache disposition and wall-clock
// timing ride on each NDJSON event, and the wire format is golden-pinned.
// See the internal/serve package documentation for the endpoints, schema
// and fingerprint rules.
//
// The command-line tools live under cmd (dpsim, dpbench, dpcheck,
// dpadversary, dpserve; all speak JSON with -json, dpcheck/dpadversary
// select properties with -props, and the engine tools inject fault models
// with -faults) and share the internal/cli config layer, so registered
// extensions appear in every tool's flags and error messages. The
// reproduction experiments are the suite in package dining: dpbench runs
// them by ID (-experiment E-T3) and prints their tables as text, JSON or,
// with -markdown, one Markdown document, and a golden file pins every
// deterministic table of the quick suite. The benchmark suite in
// bench_test.go has one benchmark per reproduced table or figure of the
// paper.
//
// # Enforced invariants
//
// The repo-wide invariants that the determinism and allocation guarantees
// above rest on are machine-checked by dplint (cmd/dplint, built on the
// stdlib-only analyzer framework in internal/analysis):
//
//	go run ./cmd/dplint ./...
//
// exits non-zero with file:line diagnostics when any of its six analyzers
// finds a violation:
//
//   - maporder: a map range loop must not feed iteration order into a
//     returned or accumulated value (append, +=, last-writer-wins) unless
//     the result is re-canonicalized — Go's randomized map order would make
//     results run-dependent.
//   - detsource: the deterministic core (internal/sim, algo, sched,
//     modelcheck, graphalg, fault, verify) must not read wall-clock time
//     (time.Now/Since), the process environment (os.Getenv/LookupEnv) or
//     the globally seeded math/rand; randomness flows only through
//     internal/prng sources threaded from the per-trial seed. The gate also
//     applies file-by-file where a deterministic core shares a package with
//     clock-reading code: internal/serve's cache and fingerprint files are
//     held to the rules while its handlers may stamp response timing, and
//     internal/graph's automorphism file joins the core its construction
//     code stays outside of.
//   - hotalloc: no function literals bound to sim.Outcome.Apply (outcome
//     sets are rebuilt every step; closures would allocate per step —
//     programs use static funcs with the Arg field) and no fmt.* formatting
//     on non-error hot paths.
//   - unsafeaudit: package unsafe is confined to an explicit allowlist,
//     which names no production file.
//   - registryname: names registered with the five open registries
//     (topologies, algorithms, schedulers, properties, faults) are
//     canonical lower-kebab-case and unique per registry.
//   - unused: every exported package-level function, type, variable and
//     constant of an internal package, and every exported method of a type
//     declared there, has a use in non-test code outside its own declaration
//     — cmd/, examples/ and the perfbench module count, tests and test-helper
//     packages do not — so API that only its own tests reach is deleted
//     instead of maintained. A method also counts as used when its name and
//     signature match a method of an interface that non-test code mentions,
//     named or anonymous, or that a standard-library package the module
//     imports declares (fmt.Stringer, error), and its type T or *T
//     implements that interface, because interface satisfaction hides its
//     callers; a Len() int on a type that is no sort.Interface stays
//     flagged. The public dining API and test-helper
//     packages are out of scope, and the rule reads the whole module's
//     references, so `dplint <dir>` gives the same verdict on a package as
//     `dplint ./...`.
//
// A deliberate exception is suppressed in place with a mandatory reason:
//
//	//dplint:ok <analyzer> <reason>
//
// on (or immediately above) the flagged line. dplint itself checks the
// annotations: a missing reason, an unknown analyzer name, or a suppression
// that no longer suppresses anything is a diagnostic too. CI runs dplint as
// a blocking step of the lint job.
package repro
