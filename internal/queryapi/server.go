package queryapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"provnet/internal/core"
	"provnet/internal/obs"
	"provnet/internal/provenance"
)

// Server answers HTTP queries against one Network. Table and best-path
// reads are served lock-free from the Driver's ReadView; traceback
// queries walk the concurrency-safe provenance stores (ModeDistributed)
// or read condensed expressions off the view (ModeCondensed); subscribe
// streams live table updates over SSE.
type Server struct {
	n *core.Network
	d *core.Driver
	// encoders is the free list of reply encoders, which handlers take
	// one each from and give back. It is not a sync.Pool, which under
	// the race detector drops a share of what is put back.
	encoders struct {
		sync.Mutex
		free []*replyEncoder
	}
}

// NewServer mounts a query server on the network's driver.
func NewServer(n *core.Network) *Server { return &Server{n: n, d: n.Driver()} }

// Handler returns the HTTP handler serving the /v1 API. When the
// network carries a metrics registry (Config.Metrics), the observability
// surface mounts alongside it — GET /metrics (Prometheus text) and
// GET /v1/debug/rounds (the flight recorder) — and every /v1 endpoint
// is wrapped with request-count and latency instruments.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tables/{pred}", s.instrument("tables", s.handleTables))
	mux.HandleFunc("GET /v1/bestpath", s.instrument("bestpath", s.handleBestPath))
	mux.HandleFunc("GET /v1/traceback", s.instrument("traceback", s.handleTraceback))
	mux.HandleFunc("GET /v1/subscribe", s.instrument("subscribe", s.handleSubscribe))
	if s.n.Metrics() != nil {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
		mux.HandleFunc("GET /v1/debug/rounds", s.handleDebugRounds)
	}
	return mux
}

// instrument wraps one endpoint with a request counter and latency
// histogram. With metrics disabled it returns h untouched — zero
// overhead, same as every other disabled instrument.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	m := s.n.Metrics()
	if m == nil {
		return h
	}
	reqs := m.LabeledCounter("provnet_http_requests_total", "API requests served, by endpoint.", "endpoint", endpoint)
	lat := m.LabeledHistogram("provnet_http_request_seconds", "API request latency, by endpoint.", "endpoint", endpoint, obs.DefLatencyNanos, 1e-9)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		lat.Observe(time.Since(start).Nanoseconds())
		reqs.Inc()
	}
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (only mounted when a registry is configured).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.n.Metrics().WritePrometheus(w)
}

// debugRounds is the versioned JSON schema of GET /v1/debug/rounds.
type debugRounds struct {
	V      int               `json:"v"`
	Rounds []obs.RoundRecord `json:"rounds"`
}

// debugRoundsVersion is the /v1/debug/rounds schema version; bump on
// breaking changes (additive RoundRecord fields do not count).
const debugRoundsVersion = 1

// handleDebugRounds dumps the flight recorder: the last N scheduler
// steps with per-round deltas, timings, and queue depths.
func (s *Server) handleDebugRounds(w http.ResponseWriter, r *http.Request) {
	recs := s.n.Metrics().FlightRecorder().Snapshot()
	if recs == nil {
		recs = []obs.RoundRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, debugRounds{V: debugRoundsVersion, Rounds: recs})
}

// writeResult marshals the envelope (every response, success or error,
// is a QueryResult).
func (s *Server) writeResult(w http.ResponseWriter, status int, res *QueryResult) {
	res.V = SchemaVersion
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	s.writeJSON(w, res)
}

// replyEncoder is an indenting JSON encoder and the buffer it encodes
// into, and the buffers a traceback's tuple texts are rendered in, kept
// between replies.
type replyEncoder struct {
	buf  bytes.Buffer
	enc  *json.Encoder
	text treeText
}

// takeEncoder takes a reply encoder off the free list, or makes one.
func (s *Server) takeEncoder() *replyEncoder {
	re := &s.encoders
	re.Lock()
	var r *replyEncoder
	if k := len(re.free); k > 0 {
		r, re.free = re.free[k-1], re.free[:k-1]
	}
	re.Unlock()
	if r == nil {
		r = new(replyEncoder)
		r.enc = json.NewEncoder(&r.buf)
		r.enc.SetIndent("", "  ")
	}
	return r
}

// giveEncoder puts r back on the free list.
func (s *Server) giveEncoder(r *replyEncoder) {
	if r.buf.Cap() > 1<<20 || cap(r.text.buf) > 1<<20 { // a one-off huge reply is not worth hoarding
		return
	}
	re := &s.encoders
	re.Lock()
	re.free = append(re.free, r)
	re.Unlock()
}

// writeJSON writes v as indented JSON in one Write, nothing if it does
// not encode.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	r := s.takeEncoder()
	r.buf.Reset()
	if r.enc.Encode(v) == nil {
		_, _ = w.Write(r.buf.Bytes())
	}
	s.giveEncoder(r)
}

func (s *Server) writeError(w http.ResponseWriter, status int, kind string, err error) {
	s.writeResult(w, status, &QueryResult{Kind: kind, Error: err.Error()})
}

// handleTables serves GET /v1/tables/{pred}?node=N — the rows of one
// predicate at one node (or at every node when node is omitted), from
// the current snapshot.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	pred := r.PathValue("pred")
	node := r.URL.Query().Get("node")
	view := s.d.ReadView()
	res := &QueryResult{Kind: "tables", Node: node, Snapshot: view.Seq, Clock: view.Clock}
	nodes := view.Nodes()
	if node != "" {
		if !view.HasNode(node) {
			s.writeError(w, http.StatusNotFound, "tables", fmt.Errorf("unknown node %q", node))
			return
		}
		nodes = []string{node}
	}
	// A predicate unknown everywhere is a client error, not an empty
	// result: 404 distinguishes "no such relation" from "relation exists
	// but holds no rows at the queried node(s)".
	known := false
	for _, name := range nodes {
		for _, p := range view.Predicates(name) {
			if p == pred {
				known = true
				break
			}
		}
		if known {
			break
		}
	}
	if !known {
		s.writeError(w, http.StatusNotFound, "tables", fmt.Errorf("unknown predicate %q", pred))
		return
	}
	for _, name := range nodes {
		rows := view.Rows(name, pred)
		tr := TableResult{Node: name, Pred: pred, Rows: []Row{}}
		for _, row := range rows {
			tr.Rows = append(tr.Rows, Row{Tuple: row.Tuple.String(), Prov: row.Prov})
		}
		res.Tables = append(res.Tables, tr)
	}
	s.writeResult(w, http.StatusOK, res)
}

// handleBestPath serves GET /v1/bestpath?from=S&dest=D — decoded
// bestPath(@S,D,P,C) facts from the current snapshot, filtered by the
// optional from/dest parameters.
func (s *Server) handleBestPath(w http.ResponseWriter, r *http.Request) {
	from := r.URL.Query().Get("from")
	dest := r.URL.Query().Get("dest")
	view := s.d.ReadView()
	res := &QueryResult{Kind: "bestpath", Snapshot: view.Seq, Clock: view.Clock, Paths: []BestPath{}}
	nodes := view.Nodes()
	if from != "" {
		if !view.HasNode(from) {
			s.writeError(w, http.StatusNotFound, "bestpath", fmt.Errorf("unknown node %q", from))
			return
		}
		nodes = []string{from}
	}
	for _, name := range nodes {
		for _, row := range view.Rows(name, "bestPath") {
			bp, ok := decodeBestPath(row)
			if !ok || (dest != "" && bp.Dest != dest) {
				continue
			}
			res.Paths = append(res.Paths, bp)
		}
	}
	s.writeResult(w, http.StatusOK, res)
}

// handleTraceback serves GET /v1/traceback?node=N&tuple=T — the
// derivation tree of T at N (ModeLocal/ModeDistributed), or its
// condensed provenance expression read off the snapshot (ModeCondensed).
// Optional: maxdepth (at most provenance.DefaultMaxDepth) bounds
// reconstruction, offline=1 consults offline stores (forensics over
// expired state).
func (s *Server) handleTraceback(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	node := q.Get("node")
	tupleText := q.Get("tuple")
	if node == "" || tupleText == "" {
		s.writeError(w, http.StatusBadRequest, "traceback", fmt.Errorf("node and tuple parameters are required"))
		return
	}
	target, err := core.ParseTuple(tupleText)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "traceback", err)
		return
	}
	view := s.d.ReadView()
	res := &QueryResult{Kind: "traceback", Node: node, Tuple: target.String(), Snapshot: view.Seq, Clock: view.Clock}

	if s.n.ProvMode() == provenance.ModeCondensed {
		// Condensed provenance keeps no trees; the snapshot carries the
		// <...> expression of every live tuple.
		if !view.HasNode(node) {
			s.writeError(w, http.StatusNotFound, "traceback", fmt.Errorf("unknown node %q", node))
			return
		}
		for _, row := range view.Rows(node, target.Pred) {
			if row.Tuple.Equal(target) {
				res.Condensed = row.Prov
				s.writeResult(w, http.StatusOK, res)
				return
			}
		}
		s.writeError(w, http.StatusNotFound, "traceback", fmt.Errorf("no live tuple %s at %s in snapshot %d", target, node, view.Seq))
		return
	}

	var opts provenance.QueryOpts
	switch off := q.Get("offline"); off {
	case "", "0", "false":
	case "1", "true":
		opts.Offline = true
	default:
		s.writeError(w, http.StatusBadRequest, "traceback", fmt.Errorf("bad offline %q (want 0/1/true/false)", off))
		return
	}
	if md := q.Get("maxdepth"); md != "" {
		v, err := strconv.Atoi(md)
		if err != nil || v < 0 || v > provenance.DefaultMaxDepth {
			s.writeError(w, http.StatusBadRequest, "traceback", fmt.Errorf("bad maxdepth %q (want 0-%d)", md, provenance.DefaultMaxDepth))
			return
		}
		opts.MaxDepth = v
	}
	tree, stats, err := s.n.DerivationTree(node, target, opts)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "traceback", err)
		return
	}
	// The reply shares no memory with the rendering buffers, so the
	// encoder goes back before writeResult takes one to encode it.
	re := s.takeEncoder()
	res.Traceback = re.text.fromTree(tree)
	s.giveEncoder(re)
	res.Stats = FromStats(stats)
	s.writeResult(w, http.StatusOK, res)
}

// subscribeEvent is one SSE data payload.
type subscribeEvent struct {
	V     int    `json:"v"`
	Node  string `json:"node"`
	Tuple string `json:"tuple"`
	Added bool   `json:"added"`
}

// handleSubscribe serves GET /v1/subscribe?node=N&pred=P — a
// Server-Sent-Events stream of table updates from the driver's Subscribe
// machinery ("" matches everything). Each event is one JSON
// subscribeEvent; the stream ends when the client disconnects or the
// driver closes.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sub, err := s.d.Subscribe(q.Get("node"), q.Get("pred"))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrTooManySubscriptions) {
			status = http.StatusTooManyRequests
		}
		s.writeError(w, status, "subscribe", err)
		return
	}
	defer sub.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "subscribe", fmt.Errorf("streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case u, ok := <-sub.Updates():
			if !ok {
				return // driver closed
			}
			payload, err := json.Marshal(subscribeEvent{V: SchemaVersion, Node: u.Node, Tuple: u.Tuple.String(), Added: u.Added})
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: update\ndata: %s\n\n", payload); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
