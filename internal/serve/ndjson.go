package serve

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/dining"
)

// Event is one NDJSON response line — the envelope every endpoint streams.
// See the package comment for the schema and the accountability guarantee:
// each line carries the request id, its sequence number, the echoed
// configuration, the cache disposition and the elapsed wall-clock time, so
// any single line identifies exactly what produced it.
type Event struct {
	// Event is the line kind: progress, result, trial, scenario, error, done.
	Event string `json:"event"`
	// ID is the request id; Seq numbers the lines of one response from 1.
	ID  string `json:"id"`
	Seq int    `json:"seq"`
	// Config echoes the canonical engine configuration (engine endpoints);
	// SweepConfig echoes the grid (sweep endpoint).
	Config      *Config      `json:"config,omitempty"`
	SweepConfig *SweepConfig `json:"sweep_config,omitempty"`
	// Cache is the request's state-space disposition: hit, miss or shared
	// (endpoints that explore only).
	Cache Status `json:"cache,omitempty"`
	// ElapsedMS is wall-clock milliseconds since the request started.
	ElapsedMS int64 `json:"elapsed_ms"`
	// States and Transitions size the explored space (progress/done lines of
	// exploring endpoints).
	States      int `json:"states,omitempty"`
	Transitions int `json:"transitions,omitempty"`
	// Detail annotates progress lines.
	Detail string `json:"detail,omitempty"`
	// The payloads, one per event kind; their wire formats are the dining
	// package's stable JSON formats.
	Result   *dining.PropertyResult `json:"result,omitempty"`
	Trial    *dining.TrialResult    `json:"trial,omitempty"`
	Scenario *dining.ScenarioResult `json:"scenario,omitempty"`
	Error    string                 `json:"error,omitempty"`
}

// streamWriter emits Events as NDJSON, flushing after every line so clients
// observe progress while the server is still exploring. It assigns sequence
// numbers; handlers only pick the kind and payload.
type streamWriter struct {
	w   io.Writer
	fl  http.Flusher
	enc *json.Encoder
	seq int
	err error
}

// newStreamWriter wraps an http.ResponseWriter (or any writer in tests).
func newStreamWriter(w io.Writer) *streamWriter {
	sw := &streamWriter{w: w, enc: json.NewEncoder(w)}
	if fl, ok := w.(http.Flusher); ok {
		sw.fl = fl
	}
	return sw
}

// emit numbers and writes one event. The first write error sticks and turns
// later emits into no-ops: once the client is gone there is nothing useful
// left to send.
func (sw *streamWriter) emit(ev Event) {
	if sw.err != nil {
		return
	}
	sw.seq++
	ev.Seq = sw.seq
	if err := sw.enc.Encode(ev); err != nil {
		sw.err = err
		return
	}
	if sw.fl != nil {
		sw.fl.Flush()
	}
}
