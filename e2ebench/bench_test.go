package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/wire"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n       int
		q       float64
		wantQ   float64
		wantVal float64
	}{
		{2000, 0.99, 0.99, 1980}, // 20 samples beyond: p99 stands
		{1000, 0.99, 0.99, 990},  // exactly 10 beyond
		{535, 0.99, 1 - 10.0/535, 525},
		{100, 0.99, 0.9, 90},
		{40, 0.5, 0.5, 20},
		{11, 0.5, 1 - 10.0/11, 1},
	}
	for _, c := range cases {
		p, err := percentile(seq(c.n), c.q)
		if err != nil {
			t.Fatalf("n=%d q=%v: %v", c.n, c.q, err)
		}
		if math.Abs(p.Q-c.wantQ) > 1e-12 || p.Value != c.wantVal || p.N != c.n {
			t.Errorf("n=%d q=%v: got %+v, want q=%v value=%v", c.n, c.q, p, c.wantQ, c.wantVal)
		}
		if beyond := c.n - int(p.Value); beyond < minBeyond {
			t.Errorf("n=%d q=%v: only %d samples beyond the reported value", c.n, c.q, beyond)
		}
	}
	if _, err := percentile(seq(10), 0.5); err == nil {
		t.Error("10 samples cannot have 10 beyond any percentile, want an error")
	}
}

// TestWindowedTail: a stall confined to one window of five sets the
// whole-phase p99 but not the median over windows; a sample too small
// for five windows of p99 falls back to one window and the rule.
func TestWindowedTail(t *testing.T) {
	var xs []sample
	for i := 0; i < 5000; i++ {
		v := 1.0 + float64(i%100)/100 // 1.00 .. 1.99 in every window: p99 1.98
		if i >= 1000 && i < 1100 {
			v = 50 // a 2% stall in the second window
		}
		xs = append(xs, sample{at: time.Duration(i) * time.Millisecond, ms: v})
	}
	p, w, err := windowed(xs, 5*time.Second, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if w != 5 || p.Value != 1.98 || p.N != 5000 || p.Q != 0.99 {
		t.Errorf("windowed p99 = %+v over %d windows, want 1.98 over 5", p, w)
	}
	whole, _ := percentile(values(xs), 0.99)
	if whole.Value != 50 {
		t.Errorf("whole-phase p99 = %v, want the stall (50)", whole.Value)
	}
	p, w, err = windowed(xs[:1500], 1500*time.Millisecond, 0.99)
	if err != nil || w != 1 || p.Value != 50 {
		t.Errorf("1500 samples: %+v over %d windows (%v), want one window showing the stall", p, w, err)
	}
}

func TestSelfTimeFromChildSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "server.handler", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "server.handler", Parent: 0, Start: 20 * ms, End: 50 * ms}, // overlaps its sibling
		{Name: "store.append", Parent: 2, Start: 25 * ms, End: 35 * ms},   // grandchild of op
		{Name: "late", Parent: 0, Start: 90 * ms, End: 120 * ms},          // sticks out of op
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100*ms - 40*ms - 10*ms, // [10,50] and [90,100] covered
		20 * ms,
		30*ms - 10*ms,
		10 * ms,
		30 * ms,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
}

// TestOpenLoopDueTimeLatency stalls the first request of an open loop on
// one connection: the requests queued behind it are charged the stall
// (timed from their due time), while the generator itself is not late.
func TestOpenLoopDueTimeLatency(t *testing.T) {
	if got := dueLatency(10*time.Millisecond, 95*time.Millisecond); got != 85*time.Millisecond {
		t.Fatalf("dueLatency = %v", got)
	}
	if got := genLag(10*time.Millisecond, 90*time.Millisecond, 91*time.Millisecond); got != time.Millisecond {
		t.Fatalf("genLag with a busy connection = %v, want 1ms", got)
	}
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		once.Do(func() { time.Sleep(150 * time.Millisecond) })
		_ = json.NewEncoder(w).Encode(server.QueryResponse{Results: []query.Ranked{}})
	}))
	defer ts.Close()
	rd, err := newRead(kQuery, query.Query{Center: geo.Point{Lat: 40, Lng: 116}, EndMillis: 1, RadiusMeters: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := &stream{}
	for i := 0; i < 4; i++ {
		s.ops = append(s.ops, op{kind: kQuery, rd: rd, target: -1})
		s.sched = append(s.sched, time.Duration(i)*20*time.Millisecond)
	}
	g := newGenerator(ts.URL, 1, false)
	defer g.close()
	ph := runPhase(context.Background(), g, "test", s)
	for i, r := range ph.recs {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
	}
	// Request 1 was due at 20ms but could only be sent after the 150ms
	// stall: its latency counts the wait.
	if l := ph.recs[1].latency(); l < 125*time.Millisecond {
		t.Errorf("request 1 latency %v does not include the stall ahead of it", l)
	}
	if service := ph.recs[1].done - ph.recs[1].sent; service > 100*time.Millisecond {
		t.Errorf("request 1 service time %v; the stall belongs to request 0", service)
	}
	for i, lag := range ph.lags() {
		if lag > 50 {
			t.Errorf("request %d: generator lag %vms charged for a busy connection", i, lag)
		}
	}
}

// facing returns an entry d meters from c on the given bearing, looking
// back at c, so it covers c.
func facing(id uint64, c geo.Point, bearing, d float64) index.Entry {
	return index.Entry{
		ID:       id,
		Provider: "p",
		Rep: segment.Representative{
			FoV:         fov.FoV{P: geo.Offset(c, bearing, d), Theta: math.Mod(bearing+180, 360)},
			StartMillis: 0,
			EndMillis:   1000,
		},
	}
}

func TestOracleCatchesWrongAndMissing(t *testing.T) {
	c := geo.Point{Lat: 40, Lng: 116.3}
	var preload []index.Entry
	for i := 1; i <= 8; i++ {
		preload = append(preload, facing(uint64(i), c, float64(40*i), float64(5*i)))
	}
	// Entry 9 is near but looks away: never part of an answer.
	away := facing(9, c, 0, 3)
	away.Rep.FoV.Theta = 0
	preload = append(preload, away)
	lin := index.NewLinear()
	if err := lin.InsertBatch(preload); err != nil {
		t.Fatal(err)
	}
	q := query.Query{StartMillis: 0, EndMillis: 1000, Center: c, RadiusMeters: 2}
	rank := queryRanker(q, serverCamera)
	want, err := rank(lin, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 5 || want[0].Entry.ID != 1 {
		t.Fatalf("oracle answer %v: want the five nearest facing entries", want)
	}
	uploaded := facing(100, c, 200, 7) // ranks between ids 1 and 2
	known := func(id uint64) (index.Entry, bool) {
		if id >= 1 && id <= uint64(len(preload)) {
			return preload[id-1], true
		}
		if id == uploaded.ID {
			return uploaded, true
		}
		return index.Entry{}, false
	}
	withUpload, err := func() ([]query.Ranked, error) {
		l := index.NewLinear()
		if err := l.InsertBatch(append(append([]index.Entry(nil), preload...), uploaded)); err != nil {
			return nil, err
		}
		return rank(l, 5)
	}()
	if err != nil {
		t.Fatal(err)
	}
	clone := func(rs []query.Ranked) []query.Ranked { return append([]query.Ranked(nil), rs...) }

	if err := checkExact(clone(want), want); err != nil {
		t.Errorf("exact: the oracle's own answer rejected: %v", err)
	}
	for _, got := range [][]query.Ranked{clone(want), withUpload} {
		if err := checkLive(got, want, nil, 5, rank, known); err != nil {
			t.Errorf("live: a sound answer rejected: %v", err)
		}
	}

	wrongID := clone(want)
	wrongID[2].Entry = preload[8] // the entry looking away, planted
	wrongDist := clone(want)
	wrongDist[1].DistanceMeters += 0.5
	missing := append(clone(want[:2]), want[3:]...) // planted missing entry, list not full
	swapped := clone(want)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	unknown := clone(want)
	unknown[4].Entry.ID = 999
	for name, got := range map[string][]query.Ranked{
		"wrong entry": wrongID, "wrong distance": wrongDist, "missing entry": missing,
		"out of order": swapped, "unknown id": unknown,
	} {
		if checkExact(got, want) == nil {
			t.Errorf("exact: %s not caught", name)
		}
		if checkLive(got, want, nil, 5, rank, known) == nil {
			t.Errorf("live: %s not caught", name)
		}
	}
	// A full answer may drop a preloaded entry only for one that ranks
	// ahead of it; dropping entry 3 for the upload is not sound.
	full := append(clone(withUpload[:3]), withUpload[4:]...)
	full = append(full, want[4])
	if checkLive(full, want, nil, 5, rank, known) == nil {
		t.Error("live: preloaded entry ranked ahead of the last result missing, not caught")
	}
	// Read-your-write: an upload acknowledged before the read was sent
	// must be in the answer.
	if checkLive(clone(want), want, []index.Entry{uploaded}, 5, rank, known) == nil {
		t.Error("live: acknowledged upload missing from a read-your-write probe, not caught")
	}
}

// TestBodiesMatchClient pins that the pre-encoded bodies are what
// internal/client sends.
func TestBodiesMatchClient(t *testing.T) {
	var mu sync.Mutex
	got := map[string][]byte{}
	headers := map[string]http.Header{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got[r.URL.Path], headers[r.URL.Path] = body, r.Header.Clone()
		mu.Unlock()
		if r.URL.Path == "/upload" {
			_ = json.NewEncoder(w).Encode(server.UploadResponse{IDs: []uint64{1}, TraceID: r.Header.Get(server.TraceHeader)})
			return
		}
		_ = json.NewEncoder(w).Encode(server.QueryResponse{Results: []query.Ranked{}})
	}))
	defer ts.Close()
	reps := []segment.Representative{{FoV: fov.FoV{P: geo.Point{Lat: 40.0012345678, Lng: 116.3}, Theta: 12.345}, StartMillis: 5, EndMillis: 99}}
	up, err := newUpload("provider-007", reps)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{StartMillis: 1, EndMillis: 2, Center: geo.Point{Lat: 40.1, Lng: 116.2}, RadiusMeters: queryR}
	rd, err := newRead(kQuery, q)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(ts.URL)
	if _, _, err := cl.UploadTraced(wire.Upload{Provider: "provider-007", Reps: reps}, "bench-x"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Query(q, topN); err != nil {
		t.Fatal(err)
	}
	if string(got["/upload"]) != string(up.body) {
		t.Errorf("upload body differs from client.UploadTraced's")
	}
	if string(got["/query"]) != string(rd.body) {
		t.Errorf("query body %s differs from client.Query's %s", rd.body, got["/query"])
	}
	if ct := headers["/upload"].Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("client upload Content-Type %q", ct)
	}
	if !strings.HasPrefix(headers["/query"].Get("Content-Type"), "application/json") {
		t.Errorf("client query Content-Type %q", headers["/query"].Get("Content-Type"))
	}
}

// TestProbeCoversItsUpload: a read-your-write probe is answered by the
// representative it was built from, so a probe that misses an
// acknowledged upload is a real failure, not a vacuous pass.
func TestProbeCoversItsUpload(t *testing.T) {
	up, err := newUpload("provider-001", []segment.Representative{{
		FoV:         fov.FoV{P: geo.Point{Lat: 40.01, Lng: 116.31}, Theta: 287.5},
		StartMillis: 1000, EndMillis: 61_000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := up.entries([]uint64{7})[0]
	lin := index.NewLinear()
	if err := lin.Insert(e); err != nil {
		t.Fatal(err)
	}
	for _, k := range []kind{kQuery, kNearest} {
		rd, err := probeRead(k, up.reps[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := rd.rank()(lin, rd.n())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Entry != e {
			t.Errorf("%s probe answered %v, want the probed entry", k, got)
		}
		if checkLive(nil, nil, []index.Entry{e}, rd.n(), rd.rank(), func(uint64) (index.Entry, bool) { return e, true }) == nil {
			t.Errorf("%s probe: an empty answer passed although the upload was acknowledged", k)
		}
	}
}

func TestReadHostTicks(t *testing.T) {
	a, err := readHostTicks()
	if err != nil {
		t.Skipf("no /proc/stat: %v", err)
	}
	b, err := readHostTicks()
	if err != nil {
		t.Fatal(err)
	}
	if a.total <= 0 || a.steal < 0 || a.steal > a.total || b.total < a.total || b.steal < a.steal {
		t.Fatalf("implausible readings %+v then %+v", a, b)
	}
	if s := stealShare(a, a); s != 0 {
		t.Errorf("steal share over no time = %v", s)
	}
	if s := stealShare(hostTicks{10, 100}, hostTicks{15, 200}); s != 0.05 {
		t.Errorf("steal share = %v, want 0.05", s)
	}
}
