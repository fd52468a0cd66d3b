package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dining"
)

// newTestServer boots a serve.Server on an httptest listener with a fixed
// clock, so elapsed_ms is deterministically zero.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Clock == nil {
		fixed := time.Unix(1_700_000_000, 0)
		opts.Clock = func() time.Time { return fixed }
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes the NDJSON response into events.
func post(t *testing.T, ts *httptest.Server, path string, body any) (int, []Event) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, events
}

// checkAccountable asserts the per-line contract of an engine endpoint:
// every event carries the request id, a 1-based increasing sequence number
// and the echoed engine config with a non-empty fingerprint.
func checkAccountable(t *testing.T, events []Event, wantID string) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no response events")
	}
	for i, ev := range events {
		if ev.ID != wantID {
			t.Errorf("event %d: id = %q, want %q", i, ev.ID, wantID)
		}
		if ev.Seq != i+1 {
			t.Errorf("event %d: seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Config == nil || ev.Config.Fingerprint == "" {
			t.Errorf("event %d: missing config echo / fingerprint", i)
		}
	}
	if last := events[len(events)-1]; last.Event != "done" {
		t.Errorf("last event = %q, want done", last.Event)
	}
}

var checkBody = Request{ID: "req-1", Topology: "ring", N: 3, Algorithm: dining.LR1}

// TestCheckSecondRequestIsCacheHit is the headline acceptance criterion:
// the same /v1/check configuration twice, the first response reporting a
// cache miss and the second a hit, with exactly one exploration run.
func TestCheckSecondRequestIsCacheHit(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{})

	code, first := post(t, ts, "/v1/check", checkBody)
	if code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
	checkAccountable(t, first, "req-1")
	if first[0].Event != "progress" || first[0].Cache != StatusMiss {
		t.Errorf("first response opens with (%q, cache=%q), want progress/miss", first[0].Event, first[0].Cache)
	}

	second := Request{ID: "req-2", Topology: "ring", N: 3, Algorithm: dining.LR1}
	code, events := post(t, ts, "/v1/check", second)
	if code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	checkAccountable(t, events, "req-2")
	for i, ev := range events {
		if ev.Cache != StatusHit {
			t.Errorf("second response event %d: cache = %q, want hit on every line", i, ev.Cache)
		}
	}
	if first[0].Config.Fingerprint != events[0].Config.Fingerprint {
		t.Errorf("identical configs echoed different fingerprints: %s vs %s",
			first[0].Config.Fingerprint, events[0].Config.Fingerprint)
	}

	// Both responses carry the same verdicts: four exhaustive built-ins.
	for _, events := range [][]Event{first, events} {
		results := 0
		for _, ev := range events {
			if ev.Event == "result" {
				results++
				if ev.Result == nil {
					t.Error("result event without payload")
				}
			}
		}
		if want := len(dining.ExhaustiveProperties()); results != want {
			t.Errorf("got %d result lines, want %d", results, want)
		}
	}

	if st := s.cache.Stats(); st.Explorations != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want exactly 1 exploration, 1 miss, 1 hit", st)
	}
}

// TestCheckConcurrentIdenticalRequests fires identical /v1/check requests
// concurrently and checks that the server ran exactly one exploration —
// the singleflight guarantee end-to-end through HTTP. (Any interleaving
// satisfies this: overlapping requests share the flight, later ones hit.)
func TestCheckConcurrentIdenticalRequests(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := checkBody
			req.ID = fmt.Sprintf("c%d", i)
			code, events := post(t, ts, "/v1/check", req)
			if code != http.StatusOK {
				errs <- fmt.Sprintf("client %d: status %d", i, code)
				return
			}
			if last := events[len(events)-1]; last.Event != "done" {
				errs <- fmt.Sprintf("client %d: last event %q", i, last.Event)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if st := s.cache.Stats(); st.Explorations != 1 {
		t.Errorf("%d identical concurrent requests ran %d explorations, want exactly 1 (stats %+v)",
			clients, st.Explorations, st)
	}
}

// TestCheckDistinctConfigsDistinctEntries checks that a semantically
// different request (a fault spec) misses rather than reusing the entry.
func TestCheckDistinctConfigsDistinctEntries(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{})
	if code, _ := post(t, ts, "/v1/check", checkBody); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	faulty := Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Faults: "crash-rejoin:0.1",
		Props: []string{dining.ProgressUnderFaults}}
	code, events := post(t, ts, "/v1/check", faulty)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if events[0].Cache != StatusMiss {
		t.Errorf("fault-injected config served cache %q, want miss — fault specs must split the key", events[0].Cache)
	}
	delayed := Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Faults: "delayed-grants:0.5,2",
		Props: []string{dining.ProgressUnderFaults}}
	code, dEvents := post(t, ts, "/v1/check", delayed)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if dEvents[0].Cache != StatusMiss {
		t.Errorf("delayed-grants config served cache %q, want miss", dEvents[0].Cache)
	}
	if a, b := events[0].Config.Fingerprint, dEvents[0].Config.Fingerprint; a == b {
		t.Errorf("crash-rejoin and delayed-grants requests share fingerprint %s — fault specs must split the key", a)
	}
	if got := dEvents[0].Config.Faults; got != "delayed-grants:0.5,2" {
		t.Errorf("echoed fault spec %q, want the canonical delayed-grants spec", got)
	}
	if st := s.cache.Stats(); st.Explorations != 3 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 3 explorations and 3 entries", st)
	}
}

// TestCheckStatisticalOnlySkipsExploration: a props list with no exhaustive
// property must not explore (or touch the cache) at all.
func TestCheckStatisticalOnlySkipsExploration(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{})
	req := Request{Topology: "ring", N: 3, Algorithm: dining.LR1,
		Props: []string{dining.StatisticalProgress}, Trials: 5, MaxSteps: 2000}
	code, events := post(t, ts, "/v1/check", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i, ev := range events {
		if ev.Cache != "" {
			t.Errorf("event %d carries cache %q, want none for statistical-only checks", i, ev.Cache)
		}
	}
	if st := s.cache.Stats(); st.Explorations != 0 {
		t.Errorf("statistical-only request ran %d explorations, want 0", st.Explorations)
	}
}

// TestTrialsEndpoint checks /v1/trials: one trial line per requested trial,
// every line accountable, closing with done.
func TestTrialsEndpoint(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	req := Request{ID: "t-1", Topology: "ring", N: 3, Algorithm: dining.GDP1, Trials: 4, MaxSteps: 2000}
	code, events := post(t, ts, "/v1/trials", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	checkAccountable(t, events, "t-1")
	trials := 0
	for _, ev := range events {
		if ev.Event == "trial" {
			trials++
			if ev.Trial == nil {
				t.Error("trial event without payload")
			}
		}
	}
	if trials != 4 {
		t.Errorf("got %d trial lines, want 4", trials)
	}
}

// TestTrialsReportsTheCountThatRuns pins the progress line of a /v1/trials
// request without a trial count: it announces the one trial that streams.
func TestTrialsReportsTheCountThatRuns(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	req := Request{ID: "t-0", Topology: "ring", N: 3, Algorithm: dining.GDP1, MaxSteps: 2000}
	code, events := post(t, ts, "/v1/trials", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	checkAccountable(t, events, "t-0")
	trials := 0
	for _, ev := range events {
		if ev.Event == "trial" {
			trials++
		}
	}
	if trials != 1 {
		t.Errorf("got %d trial lines, want 1", trials)
	}
	if want := fmt.Sprintf("running %d trials", trials); events[0].Detail != want {
		t.Errorf("progress line = %q, want %q", events[0].Detail, want)
	}
}

// TestSweepEndpoint checks /v1/sweep: one scenario line per grid cell, the
// expanded grid echoed on every line.
func TestSweepEndpoint(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	req := SweepRequest{
		ID:         "s-1",
		Topologies: []TopologySpec{{Name: "ring", N: 3}},
		Algorithms: []string{dining.GDP1, dining.OrderedForks},
		Trials:     2,
		MaxSteps:   2000,
	}
	code, events := post(t, ts, "/v1/sweep", req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	scenarios := 0
	for i, ev := range events {
		if ev.ID != "s-1" || ev.Seq != i+1 {
			t.Errorf("event %d: id/seq = %q/%d", i, ev.ID, ev.Seq)
		}
		if ev.SweepConfig == nil || ev.SweepConfig.Scenarios != 2 {
			t.Errorf("event %d: missing or wrong sweep config echo: %+v", i, ev.SweepConfig)
		}
		if ev.Event == "scenario" {
			scenarios++
			if ev.Scenario == nil {
				t.Error("scenario event without payload")
			}
		}
	}
	if scenarios != 2 {
		t.Errorf("got %d scenario lines, want 2", scenarios)
	}
	if last := events[len(events)-1]; last.Event != "done" {
		t.Errorf("last event = %q, want done", last.Event)
	}
}

// TestCheckProtectedSpellingsShareOneEntry pins that every spelling of one
// protected set is one configuration: [1, 0] explores, then [0, 1] is a
// cache hit, and both responses echo the canonical [0, 1].
func TestCheckProtectedSpellingsShareOneEntry(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{})
	var fingerprints []string
	for i, protected := range [][]dining.PhilID{{1, 0}, {0, 1}} {
		req := Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Protected: protected, Props: []string{dining.DeadlockFreedom}}
		code, events := post(t, ts, "/v1/check", req)
		if code != http.StatusOK || len(events) == 0 {
			t.Fatalf("protected %v: status %d, %d events", protected, code, len(events))
		}
		want := StatusMiss
		if i > 0 {
			want = StatusHit
		}
		if ev := events[0]; ev.Cache != want || !slices.Equal(ev.Config.Protected, []dining.PhilID{0, 1}) {
			t.Errorf("protected %v: cache %q, echoed protected %v; want %q and [0 1]", protected, ev.Cache, ev.Config.Protected, want)
		}
		fingerprints = append(fingerprints, events[0].Config.Fingerprint)
	}
	if fingerprints[0] != fingerprints[1] {
		t.Errorf("spellings of one protected set echoed fingerprints %s and %s", fingerprints[0], fingerprints[1])
	}
	if st := s.cache.Stats(); st.Explorations != 1 {
		t.Errorf("explorations = %d, want 1", st.Explorations)
	}
}

// TestCheckIgnoredAlgorithmOptionIsCacheHit pins that an option the
// algorithm does not read is no part of the configuration: LR1 draws no fork
// numbers, so a request with m = 7 is a cache hit of the plain one and
// echoes no algorithm options.
func TestCheckIgnoredAlgorithmOptionIsCacheHit(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{})
	for i, m := range []int{0, 7} {
		req := Request{Topology: "ring", N: 3, Algorithm: dining.LR1, M: m, Props: []string{dining.DeadlockFreedom}}
		code, events := post(t, ts, "/v1/check", req)
		if code != http.StatusOK || len(events) == 0 {
			t.Fatalf("m %d: status %d, %d events", m, code, len(events))
		}
		want := StatusMiss
		if i > 0 {
			want = StatusHit
		}
		if ev := events[0]; ev.Cache != want || ev.Config.AlgoOptions != nil {
			t.Errorf("m %d: cache %q, echoed options %+v; want %q and none", m, ev.Cache, ev.Config.AlgoOptions, want)
		}
	}
	if st := s.cache.Stats(); st.Explorations != 1 {
		t.Errorf("explorations = %d, want 1", st.Explorations)
	}
}

// TestBadRequests checks the validation path: every malformed request gets
// a 400 with a single NDJSON error event carrying a request id.
func TestBadRequests(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		path string
		body any
	}{
		{"unknown topology", "/v1/check", Request{Topology: "moebius", Algorithm: dining.LR1}},
		{"unknown algorithm", "/v1/check", Request{Topology: "ring", N: 3, Algorithm: "nope"}},
		{"unknown property", "/v1/check", Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Props: []string{"nope"}}},
		{"unknown field", "/v1/check", map[string]any{"topology": "ring", "n": 3, "algorithm": dining.LR1, "shardz": 4}},
		{"empty sweep", "/v1/sweep", SweepRequest{}},
		{"unknown sweep topology", "/v1/sweep", SweepRequest{Topologies: []TopologySpec{{Name: "moebius"}}, Algorithms: []string{dining.LR1}}},
		{"ring at n=1", "/v1/check", Request{Topology: "ring", N: 1, Algorithm: dining.GDP2}},
		{"ring-chord at n=2", "/v1/trials", Request{Topology: "ring-chord", N: 2, Algorithm: dining.GDP2}},
		{"grid at n=1 in a sweep", "/v1/sweep", SweepRequest{Topologies: []TopologySpec{{Name: "grid", N: 1}}, Algorithms: []string{dining.LR1}}},
		{"grid over the topology size bound", "/v1/check", Request{Topology: "grid", N: 182, Algorithm: dining.LR1}},
		{"negative n", "/v1/check", Request{Topology: "ring", N: -3, Algorithm: dining.LR1}},
		{"negative n in trials", "/v1/trials", Request{Topology: "ring", N: -3, Algorithm: dining.LR1}},
		{"negative n in a sweep", "/v1/sweep", SweepRequest{Topologies: []TopologySpec{{Name: "ring", N: -3}}, Algorithms: []string{dining.LR1}}},
		{"protected philosopher out of range", "/v1/check", Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Protected: []dining.PhilID{99}}},
		{"protected philosopher out of range in trials", "/v1/trials", Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Scheduler: dining.Adversary, Protected: []dining.PhilID{99}}},
		{"negative max_states", "/v1/check", Request{Topology: "ring", N: 3, Algorithm: dining.LR1, MaxStates: -5}},
		{"negative trials in a check", "/v1/check", Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Trials: -3}},
		{"negative trials", "/v1/trials", Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Trials: -3}},
		{"negative fairness_window", "/v1/trials", Request{Topology: "ring", N: 3, Algorithm: dining.LR1, Scheduler: dining.Adversary, FairnessWindow: -1}},
		{"negative fairness_window in a check", "/v1/check", Request{Topology: "ring", N: 3, Algorithm: dining.LR1, FairnessWindow: -1}},
		{"negative m", "/v1/check", Request{Topology: "ring", N: 3, Algorithm: dining.GDP1, M: -1}},
		{"negative m in trials", "/v1/trials", Request{Topology: "ring", N: 3, Algorithm: dining.GDP1, M: -1}},
		{"negative trials in a sweep", "/v1/sweep", SweepRequest{Topologies: []TopologySpec{{Name: "ring", N: 3}}, Algorithms: []string{dining.LR1}, Trials: -2}},
		{"negative max_steps in a sweep", "/v1/sweep", SweepRequest{Topologies: []TopologySpec{{Name: "ring", N: 3}}, Algorithms: []string{dining.LR1}, MaxSteps: -1}},
		{"negative m in a sweep", "/v1/sweep", SweepRequest{Topologies: []TopologySpec{{Name: "ring", N: 3}}, Algorithms: []string{dining.GDP1}, M: -1}},
		{"negative fairness_window in a sweep", "/v1/sweep", SweepRequest{Topologies: []TopologySpec{{Name: "ring", N: 3}}, Algorithms: []string{dining.LR1}, FairnessWindow: -1}},
		{"m over the bound", "/v1/check", Request{Topology: "ring", N: 3, Algorithm: dining.GDP2, M: 1_000_000_000}},
		{"m over the bound in trials", "/v1/trials", Request{Topology: "ring", N: 3, Algorithm: dining.GDP2, M: 1_000_000_000}},
		{"m over the bound in a sweep", "/v1/sweep", SweepRequest{Topologies: []TopologySpec{{Name: "ring", N: 3}}, Algorithms: []string{dining.GDP1}, M: 1_000_000_000}},
	}
	for _, tc := range cases {
		code, events := post(t, ts, tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if len(events) != 1 || events[0].Event != "error" || events[0].Error == "" || events[0].ID == "" {
			t.Errorf("%s: response = %+v, want one accountable error event", tc.name, events)
		}
	}

	// A negative bound is malformed, not merely unbounded: under an
	// admission cap it is still a 400, not the cap's 422.
	_, capped := newTestServer(t, Options{MaxRequestStates: 5000})
	code, events := post(t, capped, "/v1/check", Request{Topology: "ring", N: 3, Algorithm: dining.LR1, MaxStates: -5})
	if code != http.StatusBadRequest || len(events) != 1 || !strings.Contains(events[0].Error, "negative") {
		t.Errorf("negative max_states under an admission cap: status %d, events %+v; want 400 naming the negative bound", code, events)
	}
}

// TestStatsAndHealthz checks the two GET endpoints.
func TestStatsAndHealthz(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	if code, _ := post(t, ts, "/v1/check", checkBody); code != http.StatusOK {
		t.Fatalf("priming check: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Explorations != 1 || st.Entries != 1 || st.CapStates != DefaultCacheStates {
		t.Errorf("/v1/stats = %+v, want 1 exploration, 1 entry, default cap", st)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body[:n])) != "ok" {
		t.Errorf("/healthz = %d %q, want 200 ok", resp.StatusCode, body[:n])
	}
}

// TestServerAssignsRequestIDs checks that requests without a client id get
// distinct server-assigned ids.
func TestServerAssignsRequestIDs(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	req := Request{Topology: "ring", N: 3, Algorithm: dining.LR1}
	_, first := post(t, ts, "/v1/check", req)
	_, second := post(t, ts, "/v1/check", req)
	if first[0].ID == "" || second[0].ID == "" || first[0].ID == second[0].ID {
		t.Errorf("server-assigned ids = %q and %q, want distinct non-empty", first[0].ID, second[0].ID)
	}
}

// TestAdmissionCapRejectsOversizedChecks checks -max-request-states: with a
// cap configured, /v1/check admits only requests bounded at or under it;
// over-cap and unbounded requests get a 422 with one structured error line
// and never touch the cache. /v1/trials (no exploration) stays unaffected.
func TestAdmissionCapRejectsOversizedChecks(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{MaxRequestStates: 5000})

	admitted := Request{ID: "ok", Topology: "ring", N: 3, Algorithm: dining.LR1, MaxStates: 5000}
	if code, events := post(t, ts, "/v1/check", admitted); code != http.StatusOK {
		t.Fatalf("at-cap request: status %d, events %+v", code, events)
	}

	rejected := []struct {
		name string
		req  Request
		want string
	}{
		{"over cap", Request{ID: "big", Topology: "ring", N: 3, Algorithm: dining.LR1, MaxStates: 5001},
			"exceeds this server's cap of 5000"},
		{"unbounded", Request{ID: "inf", Topology: "ring", N: 3, Algorithm: dining.LR1},
			"no max_states bound"},
	}
	for _, tc := range rejected {
		code, events := post(t, ts, "/v1/check", tc.req)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", tc.name, code)
		}
		if len(events) != 1 || events[0].Event != "error" || events[0].ID != tc.req.ID {
			t.Fatalf("%s: response = %+v, want one accountable error event", tc.name, events)
		}
		if !strings.Contains(events[0].Error, tc.want) {
			t.Errorf("%s: error %q, want it to mention %q", tc.name, events[0].Error, tc.want)
		}
	}
	if st := s.cache.Stats(); st.Explorations != 1 {
		t.Errorf("rejected requests changed the exploration count: stats %+v, want exactly the admitted one", st)
	}

	trials := Request{ID: "t", Topology: "ring", N: 3, Algorithm: dining.GDP1, Trials: 2, MaxSteps: 2000}
	if code, _ := post(t, ts, "/v1/trials", trials); code != http.StatusOK {
		t.Errorf("/v1/trials: status %d, want 200 (admission caps explorations, not sampling)", code)
	}
}

// TestCheckSymmetryRequest checks the symmetry knob end-to-end: the quotient
// request is echoed (config + distinct fingerprint), verdicts match the
// unreduced request, and the done line reports the smaller orbit space.
func TestCheckSymmetryRequest(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{})
	code, plain := post(t, ts, "/v1/check", checkBody)
	if code != http.StatusOK {
		t.Fatalf("unreduced request: status %d", code)
	}
	req := Request{ID: "sym", Topology: "ring", N: 3, Algorithm: dining.LR1, Symmetry: true}
	code, sym := post(t, ts, "/v1/check", req)
	if code != http.StatusOK {
		t.Fatalf("symmetry request: status %d", code)
	}
	checkAccountable(t, sym, "sym")
	if !sym[0].Config.Symmetry || plain[0].Config.Symmetry {
		t.Error("config echo does not reflect the symmetry knob")
	}
	if sym[0].Config.Fingerprint == plain[0].Config.Fingerprint {
		t.Error("symmetry did not split the fingerprint — quotient and unreduced spaces would share a cache entry")
	}
	verdicts := func(events []Event) map[string]bool {
		out := make(map[string]bool)
		for _, ev := range events {
			if ev.Event == "result" {
				out[ev.Result.Property] = ev.Result.Passed
			}
		}
		return out
	}
	pv, sv := verdicts(plain), verdicts(sym)
	if len(sv) != len(pv) {
		t.Fatalf("symmetry returned %d verdicts, unreduced %d", len(sv), len(pv))
	}
	for prop, passed := range pv {
		if sv[prop] != passed {
			t.Errorf("%s: symmetry verdict %v, unreduced %v", prop, sv[prop], passed)
		}
	}
	plainDone, symDone := plain[len(plain)-1], sym[len(sym)-1]
	if symDone.States >= plainDone.States {
		t.Errorf("quotient explored %d states, unreduced %d — expected a strict reduction on ring-3",
			symDone.States, plainDone.States)
	}
	if st := s.cache.Stats(); st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 cache entries (quotient and unreduced)", st)
	}
}

// TestBaseContextCancellationAbortsExploration checks the shutdown path:
// cancelling the server's base context fails in-flight explorations.
func TestBaseContextCancellationAbortsExploration(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: any exploration fails immediately
	_, ts := newTestServer(t, Options{BaseContext: ctx})
	code, events := post(t, ts, "/v1/check", checkBody)
	if code != http.StatusOK {
		t.Fatalf("status %d (streaming starts before the exploration fails)", code)
	}
	last := events[len(events)-1]
	if last.Event != "error" || last.Error == "" {
		t.Errorf("last event = %+v, want an error event from the cancelled exploration", last)
	}
}
