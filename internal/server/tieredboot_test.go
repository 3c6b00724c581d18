package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/wire"
)

// windowUpload places n representatives of one provider inside minute
// window w, around opsCenter; long ones outlast the window and so stay in
// the memtable when the window is sealed.
func windowUpload(rng *rand.Rand, provider string, w int64, n int, long bool) wire.Upload {
	up := wire.Upload{Provider: provider, Reps: make([]segment.Representative, n)}
	for i := range up.Reps {
		start := w*60_000 + rng.Int63n(50_000)
		dur := 500 + rng.Int63n(5_000)
		if long {
			dur = 90_000
		}
		up.Reps[i] = segment.Representative{
			FoV:         fov.FoV{P: geo.Offset(opsCenter, rng.Float64()*360, rng.Float64()*400), Theta: rng.Float64() * 360},
			StartMillis: start,
			EndMillis:   start + dur,
		}
	}
	return up
}

// TestSealedWindowBootMatchesBulkLoad is the differential test for the
// sharded index's segment-backed boot path: a server booted from a
// tiered data directory whose sealed windows coincide with its shard
// windows (Sharded.LoadWindowShard per window, memtable through
// InsertBatch) must answer /query and /nearest exactly like a server
// bulk-loaded from the same entries.
func TestSealedWindowBootMatchesBulkLoad(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))

	// Build the data directory: six sealed windows, long entries that
	// never seal, and a checkpoint; then a WAL tail that forgets a
	// provider (tombstones in sealed windows) and uploads into both a
	// sealed window and a new one.
	d := tieredOpenDisk(t, dir)
	leader, err := server.New(server.Config{
		IndexKind:   server.IndexKindSharded,
		ShardWindow: time.Minute,
		Store:       d,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	register := func(u wire.Upload) {
		t.Helper()
		if _, err := leader.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	for w := int64(0); w < 6; w++ {
		for p := 0; p < 3; p++ {
			register(windowUpload(rng, fmt.Sprintf("p%d", p), w, 20, false))
		}
	}
	register(windowUpload(rng, "long", 2, 5, true))
	if err := d.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.ForgetProvider("p2"); err != nil {
		t.Fatal(err)
	}
	register(windowUpload(rng, "late", 3, 10, false))
	register(windowUpload(rng, "fresh", 7, 10, false))
	leader.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = tieredOpenDisk(t, dir)
	defer d.Close()
	if !d.Tiered() {
		t.Fatal("reopened store is not tiered")
	}
	if sealed, rest := d.SealedWindows(); len(sealed) != 6 || len(rest) == 0 || d.TieredStats().Tombstones == 0 {
		t.Fatalf("fixture needs six sealed windows, tombstones and a memtable: %d sealed, %d rest, %+v", len(sealed), len(rest), d.TieredStats())
	}

	// slog handlers serialize their writes, and the buffer is read
	// before any request goroutine logs.
	var logBuf bytes.Buffer
	booted, err := server.New(server.Config{
		IndexKind:   server.IndexKindSharded,
		ShardWindow: time.Minute,
		Store:       d,
		Registry:    obs.NewRegistry(),
		Logger:      slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	logged := logBuf.String()
	if strings.Contains(logged, "bulk-loading instead") || !strings.Contains(logged, "index booted from sealed windows") {
		t.Fatalf("boot did not take the sealed-window path; log:\n%s", logged)
	}

	flat, err := server.New(server.Config{
		IndexKind:   server.IndexKindSharded,
		ShardWindow: time.Minute,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if err := flat.ResetState(d.Entries()); err != nil {
		t.Fatal(err)
	}
	if got, want := booted.Index().Len(), flat.Index().Len(); got != want || got == 0 {
		t.Fatalf("booted %d entries, flat %d", got, want)
	}

	bootedTS := httptest.NewServer(booted.Handler())
	defer bootedTS.Close()
	flatTS := httptest.NewServer(flat.Handler())
	defer flatTS.Close()

	post := func(url string, req any) []query.Ranked {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s", url, resp.Status)
		}
		var out struct {
			Results []query.Ranked `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Results
	}
	nonEmpty := 0
	for i := 0; i < 60; i++ {
		start := rng.Int63n(8 * 60_000)
		end := start + rng.Int63n(3*60_000)
		p := geo.Offset(opsCenter, rng.Float64()*360, rng.Float64()*400)
		qreq := server.QueryRequest{
			Query:      query.Query{Center: p, RadiusMeters: 50 + rng.Float64()*300, StartMillis: start, EndMillis: end},
			MaxResults: 50,
		}
		got, want := post(bootedTS.URL+"/query", qreq), post(flatTS.URL+"/query", qreq)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("/query %+v: sealed-window boot %v, bulk load %v", qreq.Query, got, want)
		}
		if len(got) > 0 {
			nonEmpty++
		}
		nreq := server.NearestRequest{Center: p, StartMillis: start, EndMillis: end, K: 10}
		got, want = post(bootedTS.URL+"/nearest", nreq), post(flatTS.URL+"/nearest", nreq)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("/nearest %+v: sealed-window boot %v, bulk load %v", nreq, got, want)
		}
	}
	if nonEmpty < 10 {
		t.Fatalf("only %d of 60 queries returned results; the comparison is vacuous", nonEmpty)
	}
}
