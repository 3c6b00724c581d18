package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"sync"
	"testing"
	"time"

	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/rtree"
	"fovr/internal/server"
	"fovr/internal/store"
	"fovr/internal/wire"
)

// The traced run hosts the server in the harness process so the
// benchmark's own code can put spans around the calls into each layer:
// a decorator around the store, a wrapper around the HTTP handler.
// Nothing inside the program is instrumented.

// hostSpan is one interval recorded inside the hosted server.
type hostSpan struct {
	conn, path, trace string
	start, end        time.Time
}

// spanLog keeps the hosted server's spans in memory.
type spanLog struct {
	mu       sync.Mutex
	handlers []hostSpan
	appends  map[string]hostSpan // by trace id
}

func (l *spanLog) add(s hostSpan, isAppend bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if isAppend {
		l.appends[s.trace] = s
		return
	}
	l.handlers = append(l.handlers, s)
}

// timedStore decorates the durable store, timing each journal append.
// The server journals every HTTP upload through AppendRegisterTraced.
type timedStore struct {
	*store.Disk
	log *spanLog
}

func (s timedStore) AppendRegisterTraced(es []index.Entry, trace string) error {
	start := time.Now()
	err := s.Disk.AppendRegisterTraced(es, trace)
	s.log.add(hostSpan{trace: trace, start: start, end: time.Now()}, true)
	return err
}

var (
	_ store.Store          = timedStore{}
	_ store.TracedAppender = timedStore{}
)

// spanHandler times the server's whole handler per request.
type spanHandler struct {
	next http.Handler
	log  *spanLog
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.log.add(hostSpan{conn: r.RemoteAddr, path: r.URL.Path, trace: r.Header.Get(server.TraceHeader), start: start, end: time.Now()}, false)
}

// host is the in-process server of the traced run.
type host struct {
	srv        *server.Server
	disk       *store.Disk
	hs         *http.Server
	done       chan error
	base       string
	log        *spanLog
	recovery   time.Duration // store.Open's recovery (Disk.RecoveryStats)
	indexBuild time.Duration // server.New over the recovered entries
	boot       []index.Entry // the state at boot, for the insert replay
}

// fovserverConfig is the server.Config cmd/fovserver builds from its
// default flags. Request logs are formatted and discarded, as the
// subprocess runs discard its stderr.
func fovserverConfig(st store.Store) server.Config {
	return server.Config{
		Camera:             serverCamera,
		DefaultMaxResults:  topN,
		IndexKind:          server.IndexKindRTree,
		ShardWindow:        time.Hour,
		SlowQueryThreshold: 100 * time.Millisecond,
		TraceSampleRate:    16,
		History:            obs.HistoryConfig{Enabled: true},
		HotspotK:           32,
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store:              st,
	}
}

func startHost(dir string) (*host, error) {
	obs.SetLockSampleRate(64) // fovserver's -lock-sample default
	d, err := store.Open(store.Options{
		Dir:                dir,
		Fsync:              store.FsyncAlways,
		CheckpointInterval: 5 * time.Minute,
		SegmentWindow:      time.Hour,
		CompactionInterval: time.Minute,
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	h := &host{disk: d, log: &spanLog{appends: make(map[string]hostSpan)}, done: make(chan error, 1)}
	_, h.recovery = d.RecoveryStats()
	start := time.Now()
	h.srv, err = server.New(fovserverConfig(timedStore{Disk: d, log: h.log}))
	h.indexBuild = time.Since(start)
	if err != nil {
		d.Close()
		return nil, err
	}
	h.boot = d.Entries()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Close()
		d.Close()
		return nil, err
	}
	h.base = "http://" + l.Addr().String()
	h.hs = h.srv.HTTPServer()
	h.hs.Handler = spanHandler{next: h.hs.Handler, log: h.log}
	go func() { h.done <- h.hs.Serve(l) }()
	return h, nil
}

func (h *host) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.done
	h.srv.Close()
	if cerr := h.disk.Close(); err == nil {
		err = cerr
	}
	return err
}

// opSpans builds the span tree of the traced phase: a root "op" per
// request (due time to response decoded), its "server.handler", and
// for uploads the "store.append" under that. Server spans are matched
// to requests by connection and order, and uploads additionally by
// their trace id; handler[i] is the index of op i's handler span or -1.
func opSpans(ph *phase, log *spanLog) (spans []span, handler []int, err error) {
	byConn := make(map[string][]hostSpan)
	for _, s := range log.handlers {
		byConn[s.conn] = append(byConn[s.conn], s)
	}
	opsByConn := make(map[string][]int)
	for i := range ph.recs {
		if r := &ph.recs[i]; r.err == nil {
			opsByConn[r.conn] = append(opsByConn[r.conn], i)
		}
	}
	handler = make([]int, len(ph.recs))
	for i := range handler {
		handler[i] = -1
	}
	for conn, ops := range opsByConn {
		hs := byConn[conn]
		sort.Slice(hs, func(a, b int) bool { return hs[a].start.Before(hs[b].start) })
		sort.Slice(ops, func(a, b int) bool { return ph.recs[ops[a]].sent < ph.recs[ops[b]].sent })
		if len(hs) != len(ops) {
			return nil, nil, fmt.Errorf("connection %s: %d requests but %d handler spans", conn, len(ops), len(hs))
		}
		for k, i := range ops {
			o, s := &ph.s.ops[i], hs[k]
			if s.path != o.kind.path() || s.trace != o.trace {
				return nil, nil, fmt.Errorf("request %d: handler span %s %q does not match %s %q", i, s.path, s.trace, o.kind.path(), o.trace)
			}
			r := &ph.recs[i]
			spans = append(spans, span{Name: "op", Op: i, Parent: -1, Start: r.due, End: r.done})
			root := len(spans) - 1
			spans = append(spans, span{Name: "server.handler", Op: i, Parent: root, Start: s.start.Sub(ph.t0), End: s.end.Sub(ph.t0)})
			handler[i] = len(spans) - 1
			if o.kind == kUpload {
				a, ok := log.appends[o.trace]
				if !ok {
					return nil, nil, fmt.Errorf("upload %d (trace %s) has no store.append span", i, o.trace)
				}
				spans = append(spans, span{Name: "store.append", Op: i, Parent: handler[i], Start: a.start.Sub(ph.t0), End: a.end.Sub(ph.t0)})
			}
		}
	}
	return spans, handler, nil
}

// layers is the per-layer breakdown of the traced phase.
type layers map[string]float64

// splitLayers computes the per-layer metrics from the traced phase's
// spans and a replay of its requests through the public functions of
// each layer: json.Unmarshal / wire.DecodeBinary, query.SearchCtx with
// a QueryTrace (search, filter, rank), query.SearchNearest,
// index.InsertBatch on a bulk-loaded copy of the boot state (uploads in
// id order) and json.Marshal. Per request, unaccounted time is the
// handler time minus the stages that request's replay measured.
//
// It also returns, per endpoint, the handler time split into those
// stages as shares of their sum over the replayed requests; the shares
// (unaccounted included) add up to 100 %.
func splitLayers(ph *phase, h *host, spans []span, handler []int) (layers, []string, error) {
	out := layers{}
	self := selfTimes(spans)
	var (
		handlerUs  [numKinds][]float64
		transport  [numKinds][]float64
		appendUs   []float64
		decodeUs   []float64
		encodeUs   []float64
		respBytes  []float64
		stageUs    = map[string][]float64{}
		nearestUs  []float64
		unaccQuery []float64
		unaccUp    []float64
		wireUs     []float64
		insertUs   []float64
		cands, ret int
	)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	idx := h.srv.Index()
	var ups []int
	for i, hi := range handler {
		if hi < 0 {
			continue
		}
		o, r := &ph.s.ops[i], &ph.recs[i]
		hd := spans[hi].dur()
		handlerUs[o.kind] = append(handlerUs[o.kind], us(hd))
		// The root's self time less the wait before sending is the
		// client and transport share of the round trip.
		transport[o.kind] = append(transport[o.kind], us(self[hi-1]-(r.sent-r.due)))
		switch o.kind {
		case kQuery:
			t := time.Now()
			var req server.QueryRequest
			if err := json.Unmarshal(o.rd.body, &req); err != nil {
				return nil, nil, err
			}
			dec := time.Since(t)
			tr := obs.NewQueryTrace("replay")
			res, err := query.SearchCtx(obs.WithTrace(context.Background(), tr), idx, req.Query,
				query.Options{Camera: serverCamera, MaxResults: req.MaxResults})
			if err != nil {
				return nil, nil, err
			}
			t = time.Now()
			data, err := json.Marshal(server.QueryResponse{Results: res, ElapsedMicros: 1, TraceID: "q1"})
			if err != nil {
				return nil, nil, err
			}
			enc := time.Since(t)
			staged := dec + enc
			for _, st := range tr.Stages {
				stageUs[st.Stage] = append(stageUs[st.Stage], float64(st.Nanos)/1e3)
				staged += time.Duration(st.Nanos)
			}
			decodeUs = append(decodeUs, us(dec))
			encodeUs = append(encodeUs, us(enc))
			respBytes = append(respBytes, float64(len(data)))
			unaccQuery = append(unaccQuery, us(hd-staged))
			cands += tr.Candidates
			ret += tr.Returned
		case kNearest:
			var req server.NearestRequest
			if err := json.Unmarshal(o.rd.body, &req); err != nil {
				return nil, nil, err
			}
			t := time.Now()
			if _, err := query.SearchNearest(idx, req.Center, req.StartMillis, req.EndMillis, req.K,
				query.Options{Camera: serverCamera, MaxResults: topN}); err != nil {
				return nil, nil, err
			}
			nearestUs = append(nearestUs, us(time.Since(t)))
		case kUpload:
			ups = append(ups, i)
			appendUs = append(appendUs, us(spans[hi+1].dur()))
		}
	}
	// Replay the uploads' inserts in id order on a copy of the boot
	// state, as the server applied them.
	sort.Slice(ups, func(a, b int) bool { return ph.recs[ups[a]].ids[0] < ph.recs[ups[b]].ids[0] })
	cp, err := index.BulkLoadRTree(rtree.Options{}, h.boot)
	if err != nil {
		return nil, nil, err
	}
	splits0 := cp.TreeStats().Splits
	for _, i := range ups {
		o, hi := &ph.s.ops[i], handler[i]
		t := time.Now()
		if _, err := wire.DecodeBinary(o.up.body); err != nil {
			return nil, nil, err
		}
		dec := time.Since(t)
		es := o.up.entries(ph.recs[i].ids)
		t = time.Now()
		if err := cp.InsertBatch(es); err != nil {
			return nil, nil, err
		}
		ins := time.Since(t)
		wireUs = append(wireUs, us(dec))
		insertUs = append(insertUs, us(ins))
		unaccUp = append(unaccUp, us(spans[hi].dur()-dec-spans[hi+1].dur()-ins))
	}
	for k := kind(0); k < numKinds; k++ {
		out["server."+k.String()+"_handler_us"] = median(handlerUs[k])
	}
	out["http.query_transport_us"] = median(transport[kQuery])
	out["http.upload_transport_us"] = median(transport[kUpload])
	out["server.query_unaccounted_us"] = median(unaccQuery)
	out["server.upload_unaccounted_us"] = median(unaccUp)
	out["server.json_decode_us"] = median(decodeUs)
	out["server.json_encode_us"] = median(encodeUs)
	out["server.response_bytes_per_query"] = median(respBytes)
	out["query.search_us"] = median(stageUs["search"])
	out["query.filter_us"] = median(stageUs["filter"])
	out["query.rank_us"] = median(stageUs["rank"])
	out["query.candidates_per_result"] = float64(cands) / float64(max(ret, 1))
	out["query.nearest_us"] = median(nearestUs)
	out["wire.decode_upload_us"] = median(wireUs)
	out["index.insert_batch_us"] = median(insertUs)
	out["index.splits_per_upload"] = float64(cp.TreeStats().Splits-splits0) / float64(max(len(ups), 1))
	out["store.append_us"] = median(appendUs)
	notes := []string{
		"/query handler " + shares(handlerUs[kQuery], []string{"json_decode", "search", "filter", "rank", "json_encode", "unaccounted"},
			decodeUs, stageUs["search"], stageUs["filter"], stageUs["rank"], encodeUs, unaccQuery),
		"/upload handler " + shares(handlerUs[kUpload], []string{"wire_decode", "store_append", "index_insert", "unaccounted"},
			wireUs, appendUs, insertUs, unaccUp),
	}
	return out, notes, nil
}

// shares formats the parts' sums as percentages of the total's sum.
func shares(total []float64, names []string, parts ...[]float64) string {
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	t := sum(total)
	out := fmt.Sprintf("mean %.1fus over %d requests =", t/float64(max(len(total), 1)), len(total))
	for i, p := range parts {
		out += fmt.Sprintf(" %s %.1f%%", names[i], 100*sum(p)/t)
	}
	return out
}

// handlerAllocs is testing.AllocsPerRun over Handler().ServeHTTP for one
// request, less the allocations of building the request and recorder.
func handlerAllocs(h http.Handler, path, ctype, trace string, body []byte) float64 {
	run := func(h http.Handler) float64 {
		return testing.AllocsPerRun(100, func() {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", ctype)
			if trace != "" {
				req.Header.Set(server.TraceHeader, trace)
			}
			h.ServeHTTP(httptest.NewRecorder(), req)
		})
	}
	return run(h) - run(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
}

// gcCycles reads the process's completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// counterDelta is after−before of a scraped metric.
func counterDelta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
