package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/server"
)

// rec is what one request did. Times are offsets from the phase start:
// due (open loop: the schedule; closed loop: when a connection freed),
// free (when a connection was free to take it), sent, and done (the
// response read and decoded).
type rec struct {
	due, free, sent, done time.Duration
	err                   error
	results               []query.Ranked
	ids                   []uint64
	traceID               string
	conn                  string // local address of its connection (traced runs)
}

func (r *rec) latency() time.Duration { return dueLatency(r.due, r.done) }

// generator sends a phase's requests over one connection per worker.
// Bodies are pre-encoded; a request is exactly what internal/client
// sends (same method, path, Content-Type, body, and X-Fovr-Trace on
// uploads).
type generator struct {
	base    string
	clients []*http.Client
	traced  bool // record each request's connection for span correlation
}

func newGenerator(base string, workers int, traced bool) *generator {
	g := &generator{base: base, traced: traced}
	for i := 0; i < workers; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run executes the stream: workers take requests in order from a shared
// cursor; in an open loop each waits for its request's due time first.
// It returns one rec per request and the phase's start time.
func (g *generator) run(ctx context.Context, s *stream) ([]rec, time.Time) {
	recs := make([]rec, len(s.ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.ops) || ctx.Err() != nil {
					return
				}
				r := &recs[i]
				r.free = time.Since(t0)
				r.due = r.free
				if s.sched != nil {
					r.due = s.sched[i]
					if d := time.Until(t0.Add(r.due)); d > 0 {
						time.Sleep(d)
					}
				}
				r.sent = time.Since(t0)
				g.do(ctx, c, &s.ops[i], r)
				r.done = time.Since(t0)
			}
		}(g.clients[w])
	}
	wg.Wait()
	return recs, t0
}

func (g *generator) do(ctx context.Context, c *http.Client, o *op, r *rec) {
	body, ctype := []byte(nil), "application/json"
	if o.kind == kUpload {
		body, ctype = o.up.body, "application/octet-stream"
	} else {
		body = o.rd.body
	}
	if g.traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(ci httptrace.GotConnInfo) { r.conn = ci.Conn.LocalAddr().String() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+o.kind.path(), bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", ctype)
	if o.trace != "" {
		req.Header.Set(server.TraceHeader, o.trace)
	}
	resp, err := c.Do(req)
	if err != nil {
		r.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("%s: %s: %s", o.kind.path(), resp.Status, bytes.TrimSpace(data))
		return
	}
	switch o.kind {
	case kUpload:
		var ack server.UploadResponse
		r.err = json.Unmarshal(data, &ack)
		r.ids, r.traceID = ack.IDs, ack.TraceID
	case kNearest:
		var nr server.NearestResponse
		r.err = json.Unmarshal(data, &nr)
		r.results = nr.Results
	default:
		var qr server.QueryResponse
		r.err = json.Unmarshal(data, &qr)
		r.results = qr.Results
	}
}

// phase is one executed stream.
type phase struct {
	name string
	s    *stream
	recs []rec
	t0   time.Time
}

func runPhase(ctx context.Context, g *generator, name string, s *stream) *phase {
	recs, t0 := g.run(ctx, s)
	return &phase{name: name, s: s, recs: recs, t0: t0}
}

// elapsed is the phase's wall time: start to the last response.
func (ph *phase) elapsed() time.Duration {
	var end time.Duration
	for i := range ph.recs {
		end = max(end, ph.recs[i].done)
	}
	return end
}

// latencies returns the open-loop latencies of the phase's successful
// requests of kind k (every kind when k is numKinds) at their due
// times.
func (ph *phase) latencies(k kind) []sample {
	var out []sample
	for i := range ph.recs {
		if r := &ph.recs[i]; r.err == nil && (k == numKinds || ph.s.ops[i].kind == k) {
			out = append(out, sample{at: r.due, ms: ms(r.latency())})
		}
	}
	return out
}

func values(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// completed counts the phase's requests that got a response.
func (ph *phase) completed() int {
	n := 0
	for i := range ph.recs {
		if ph.recs[i].err == nil {
			n++
		}
	}
	return n
}

// lags returns how late the generator sent each request, in ms.
func (ph *phase) lags() []float64 {
	out := make([]float64, len(ph.recs))
	for i := range ph.recs {
		r := &ph.recs[i]
		out[i] = ms(genLag(r.due, r.free, r.sent))
	}
	return out
}

// ackedBytes sums the bodies of the phase's acknowledged uploads.
func (ph *phase) ackedBytes() int64 {
	var n int64
	for i := range ph.recs {
		if o := &ph.s.ops[i]; o.kind == kUpload && ph.recs[i].err == nil {
			n += int64(len(o.up.body))
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// acked collects every acknowledged upload of the phases: id → the
// stored entry. Malformed acks are left out (they fail verification).
func acked(phases []*phase) map[uint64]index.Entry {
	out := make(map[uint64]index.Entry)
	for _, ph := range phases {
		for i := range ph.recs {
			r, o := &ph.recs[i], &ph.s.ops[i]
			if o.kind != kUpload || r.err != nil || len(r.ids) != len(o.up.reps) {
				continue
			}
			for _, e := range o.up.entries(r.ids) {
				out[e.ID] = e
			}
		}
	}
	return out
}

// verify checks every response of the phases and returns the number of
// failed requests (transport errors, refusals, wrong answers) with a
// sample of the reasons.
func verify(ds *dataset, phases []*phase) (failed int, reasons []string) {
	ack := acked(phases)
	known := func(id uint64) (index.Entry, bool) {
		if id >= 1 && id <= uint64(len(ds.preload)) {
			return ds.preload[id-1], true
		}
		e, ok := ack[id]
		return e, ok
	}
	seen := make(map[uint64]bool)
	for _, ph := range phases {
		for i := range ph.recs {
			if err := verifyOne(ds, ph, i, known, seen); err != nil {
				failed++
				if len(reasons) < 5 {
					reasons = append(reasons, fmt.Sprintf("%s request %d (%s): %v", ph.name, i, ph.s.ops[i].kind, err))
				}
			}
		}
	}
	return failed, reasons
}

func verifyOne(ds *dataset, ph *phase, i int, known func(uint64) (index.Entry, bool), seen map[uint64]bool) error {
	r, o := &ph.recs[i], &ph.s.ops[i]
	if r.err != nil {
		return r.err
	}
	if o.kind == kUpload {
		if len(r.ids) != len(o.up.reps) {
			return fmt.Errorf("acknowledged %d ids for %d representatives", len(r.ids), len(o.up.reps))
		}
		if r.traceID != o.trace {
			return fmt.Errorf("ack names trace %q, sent %q", r.traceID, o.trace)
		}
		for _, id := range r.ids {
			if id <= uint64(len(ds.preload)) || seen[id] {
				return fmt.Errorf("id %d assigned twice", id)
			}
			seen[id] = true
		}
		return nil
	}
	if ds.spec.exact {
		return checkExact(r.results, o.rd.want)
	}
	var must []index.Entry
	if o.target >= 0 {
		t := &ph.recs[o.target]
		if t.err == nil && t.done < r.sent && len(t.ids) == len(ph.s.ops[o.target].up.reps) {
			must = ph.s.ops[o.target].up.entries(t.ids)
		}
	}
	return checkLive(r.results, o.rd.want, must, o.rd.n(), o.rd.rank(), known)
}
