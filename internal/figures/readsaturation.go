package figures

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/wire"
)

// TableReadSaturation measures the lock-free snapshot read path under
// write saturation: query latency percentiles on a sharded server while
// W writer goroutines continuously register uploads. Queries cycle a
// fixed pool of boxes over the seeded day; churn ingest lands in later
// time windows (new captures arriving now while inquirers ask about past
// events).
//
// The table's claim: reader p99 under saturating ingest stays within 2x
// of the uncontended p99 — writers copy nodes and publish, readers pin
// snapshots and never wait. The closing note verifies the structural
// reason: with every lock acquisition timed, a full query pass records
// zero index.shard acquisitions.
func TableReadSaturation(n, queries int) *Table {
	if n <= 0 {
		n = 20000
	}
	if queries <= 0 {
		queries = 64
	}
	t := &Table{
		Title:   fmt.Sprintf("Read saturation: query latency vs concurrent ingest (%d entries, %d-query pool)", n, queries),
		Columns: []string{"writers", "p50_us", "p99_us", "p99_vs_idle_pct"},
	}

	batches := shardScaleBatches(n)
	uploads := make([]wire.Upload, len(batches))
	for i, b := range batches {
		u := wire.Upload{Provider: b[0].Provider, Reps: make([]segment.Representative, 0, len(b))}
		for _, e := range b {
			u.Reps = append(u.Reps, e.Rep)
		}
		uploads[i] = u
	}
	rng := rand.New(rand.NewSource(131))
	qs := make([]query.Query, queries)
	for i := range qs {
		start := int64(rng.Intn(86_400_000))
		qs[i] = query.Query{
			Center:       geo.Offset(shardScaleCity, rng.Float64()*360, rng.Float64()*5000),
			RadiusMeters: 200,
			StartMillis:  start,
			EndMillis:    start + 3_600_000,
		}
	}
	// Churn uploads for the writer goroutines: 20 representatives each,
	// timestamped two days after the seeded day.
	churn := make([]wire.Upload, 256)
	for i := range churn {
		u := wire.Upload{Provider: fmt.Sprintf("churn-%d", i%8), Reps: make([]segment.Representative, 20)}
		for j := range u.Reps {
			p := geo.Offset(shardScaleCity, rng.Float64()*360, rng.Float64()*5000)
			start := 2*86_400_000 + int64(rng.Intn(86_400_000))
			u.Reps[j] = segment.Representative{
				FoV:         fov.FoV{P: p, Theta: rng.Float64() * 360},
				StartMillis: start,
				EndMillis:   start + 5_000,
			}
		}
		churn[i] = u
	}

	prevRate := obs.LockSampleRate()
	defer obs.SetLockSampleRate(prevRate)
	obs.SetLockSampleRate(0)

	writerCounts := []int{0, 4}

	const timedQueries = 6000
	run := func(writers int) (p50, p99 float64, err error) {
		s, err := server.New(server.Config{
			Camera:    fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
			IndexKind: server.IndexKindSharded,
			Registry:  obs.NewRegistry(),
			HotspotK:  -1,
		})
		if err != nil {
			return 0, 0, err
		}
		defer s.Close()
		for _, u := range uploads {
			if _, err := s.Register(u); err != nil {
				return 0, 0, err
			}
		}
		for _, q := range qs {
			if _, err := s.Query(q, 10); err != nil {
				return 0, 0, err
			}
		}

		// Saturating writers: register churn uploads as fast as the index
		// accepts them, forgetting each provider's backlog periodically so
		// the index does not grow without bound across repetitions.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		writerErr := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					u := churn[(w*67+i)%len(churn)]
					if _, err := s.Register(u); err != nil {
						writerErr <- err
						return
					}
					if i%64 == 63 {
						if _, err := s.ForgetProvider(u.Provider); err != nil {
							writerErr <- err
							return
						}
					}
				}
			}(w)
		}

		runtime.GC()
		lat := make([]time.Duration, 0, timedQueries)
		for len(lat) < timedQueries {
			for _, q := range qs {
				qStart := time.Now()
				if _, err := s.Query(q, 10); err != nil {
					close(stop)
					wg.Wait()
					return 0, 0, err
				}
				lat = append(lat, time.Since(qStart))
			}
		}
		close(stop)
		wg.Wait()
		select {
		case err := <-writerErr:
			return 0, 0, err
		default:
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50 = float64(lat[len(lat)/2].Microseconds())
		p99 = float64(lat[len(lat)*99/100].Microseconds())
		return p50, p99, nil
	}

	const reps = 3
	p50Reps := make([][]float64, len(writerCounts))
	p99Reps := make([][]float64, len(writerCounts))
	for rep := 0; rep < reps; rep++ {
		for i, w := range writerCounts {
			p50, p99, err := run(w)
			if err != nil {
				t.AddNote("writers=%d run: %v", w, err)
				return t
			}
			p50Reps[i] = append(p50Reps[i], p50)
			p99Reps[i] = append(p99Reps[i], p99)
		}
	}
	idle := median(p99Reps[0])
	for i, w := range writerCounts {
		t.AddRow(
			fmt.Sprintf("%d", w),
			f1(median(p50Reps[i])),
			f1(median(p99Reps[i])),
			f1(pctOver(idle, median(p99Reps[i]))),
		)
	}

	// The structural check: with every acquisition timed, a full query
	// pass must record zero index.shard acquisitions.
	t.AddNote("%s", readLockProbe(uploads, qs))
	t.AddNote("writers register 20-rep uploads into later time windows without pause; queries cycle the pool over the seeded day; p99_vs_idle compares against the 0-writer baseline")
	t.AddNote("median of %d interleaved repetitions per writer count, %d timed queries each", reps, timedQueries)
	return t
}

// readLockProbe reports how many index.shard acquisitions a full query
// pass records with lock sampling at rate 1 — the snapshot read path's
// structural claim is that the answer is zero.
func readLockProbe(uploads []wire.Upload, qs []query.Query) string {
	prev := obs.LockSampleRate()
	obs.SetLockSampleRate(1)
	defer obs.SetLockSampleRate(prev)
	reg := obs.NewRegistry()
	s, err := server.New(server.Config{
		Camera:    fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		IndexKind: server.IndexKindSharded,
		Registry:  reg,
		HotspotK:  -1,
	})
	if err != nil {
		return fmt.Sprintf("lock probe: %v", err)
	}
	defer s.Close()
	for _, u := range uploads {
		if _, err := s.Register(u); err != nil {
			return fmt.Sprintf("lock probe: %v", err)
		}
	}
	shardWait := reg.NsHistogram(`fovr_lock_wait_ns{class="index.shard"}`)
	before := shardWait.Count()
	for _, q := range qs {
		if _, err := s.Query(q, 10); err != nil {
			return fmt.Sprintf("lock probe: %v", err)
		}
	}
	return fmt.Sprintf("lock probe (sampling rate 1): %d queries recorded %d index.shard acquisitions (ingest recorded %d)",
		len(qs), shardWait.Count()-before, before)
}
