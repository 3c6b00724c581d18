package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/wire"
	"fovr/internal/workload"
)

// kind is a request type of the mix.
type kind uint8

const (
	kQuery kind = iota
	kNearest
	kUpload
	numKinds
)

var kindNames = [numKinds]string{"query", "nearest", "upload"}

func (k kind) String() string { return kindNames[k] }

func (k kind) path() string { return "/" + kindNames[k] }

// serverCamera is the ranking geometry fovserver uses with its default
// flags (-half-angle 30 -radius 100); the oracle must rank with it.
var serverCamera = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}

const (
	topN       = 20        // maxResults of every /query
	nearestK   = 10        // k of every /nearest
	queryR     = 50.0      // /query radius in meters, as in Fig. 6(c)
	hourMillis = 3_600_000 // /query window of query-city
	liveWindow = 600_000   // hotspot-live reads the most recent 10 minutes
	maxBatch   = 64        // ingest-durable uploads carry 1..maxBatch representatives
	preloadMax = 1000      // representatives per preload upload
	// probeLagMillis is how long before a read-your-write probe its
	// target upload was due, so the ack has normally arrived.
	probeLagMillis = 200
)

// spec is one workload: the dataset the server boots with, the mix and
// the open-loop offered rate. Rates are fixed at about a quarter of the
// capacity the server had on a 2-core x86 VM when the benchmark was
// defined, and are never re-derived per run: at a half or a third, the
// hypervisor stealing 30-50 % of the CPU for a minute saturated the
// open loop and its latencies grew without bound.
type spec struct {
	name    string
	city    workload.Config
	preload int // entries in the checkpoint
	walTail int // entries uploaded after it (replayed from the WAL at boot)
	rate    float64
	mix     [numKinds]float64
	reads   int // distinct read requests in the pool
	batch   int // uploads carry 1..batch representatives
	// exact: no upload can reach any read's answer, so every answer
	// must equal the oracle's exactly.
	exact bool
}

var specs = []spec{
	{
		name:    "query-city",
		city:    cityConfig(workload.Uniform, 24*hourMillis),
		preload: 100_000,
		rate:    900,
		mix:     [numKinds]float64{0.80, 0.10, 0.10},
		reads:   2048,
		batch:   8,
		exact:   true,
	},
	{
		name:    "ingest-durable",
		city:    cityConfig(workload.Uniform, 24*hourMillis),
		preload: 100_000,
		walTail: 20_000,
		rate:    250,
		mix:     [numKinds]float64{0.10, 0.10, 0.80},
		reads:   256,
		batch:   maxBatch,
	},
	{
		name:    "hotspot-live",
		city:    hotspotConfig(),
		preload: 100_000,
		rate:    340,
		mix:     [numKinds]float64{0.70, 0.10, 0.20},
		reads:   256,
		batch:   8,
	},
}

// cityConfig spells out workload.DefaultConfig (a 10 km city) so the
// hotspot centers below can be reproduced from it.
func cityConfig(d workload.Distribution, horizon int64) workload.Config {
	c := workload.DefaultConfig
	c.Distribution = d
	c.HorizonMillis = horizon
	return c
}

// hotspotConfig is a 20-minute live city: half its captures fall in
// the 10-minute window hotspot-live reads, so the run's own uploads
// grow that window by a fraction, not a multiple, and clusters twice
// as wide as the default keep candidate sets in the hundreds.
func hotspotConfig() workload.Config {
	c := cityConfig(workload.Hotspot, 2*liveWindow)
	c.HotspotSigmaMeters = 600
	return c
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// upload is one pre-encoded /upload body and the representatives the
// server will store from it (the wire round trip quantizes them).
type upload struct {
	provider string
	reps     []segment.Representative
	body     []byte
}

// entries returns the stored form of the upload given its assigned ids.
func (u *upload) entries(ids []uint64) []index.Entry {
	out := make([]index.Entry, len(u.reps))
	for i, r := range u.reps {
		out[i] = index.Entry{ID: ids[i], Provider: u.provider, Rep: r}
	}
	return out
}

// read is one pre-encoded /query or /nearest request and the oracle's
// answer over the preloaded entries.
type read struct {
	kind kind
	q    query.Query // nearest uses Center and the window
	body []byte
	want []query.Ranked
}

func (r *read) rank() ranker {
	if r.kind == kNearest {
		return nearestRanker(r.q, serverCamera)
	}
	return queryRanker(r.q, serverCamera)
}

func (r *read) n() int {
	if r.kind == kNearest {
		return nearestK
	}
	return topN
}

// op is one scheduled request. Reads point into the pool or, for a
// read-your-write probe, at their own read; target is then the stream
// index of the upload the probe reads back.
type op struct {
	kind   kind
	rd     *read
	up     *upload
	target int
	trace  string
}

// dataset is everything a run sends and expects, derived from the seed
// alone.
type dataset struct {
	spec       spec
	seed       int64
	preload    []index.Entry // stored form, ids 1..len in order
	batches    []*upload     // fixture uploads in id order
	checkpoint int           // batches before the fixture's checkpoint
	pool       []*read       // distinct reads
	boot       *read         // the read that decides a boot is serving
	centers    []geo.Point   // hotspot centers (hotspot-live)
	oracle     *index.Linear
	userBytes  int64 // binary upload bytes of the preload
}

// newDataset builds the preload and the read pool and precomputes the
// oracle's answers.
func newDataset(sp spec, seed int64) (*dataset, error) {
	ds := &dataset{spec: sp, seed: seed}
	cfg := sp.city
	cfg.Seed = seed
	if sp.city.Distribution == workload.Hotspot {
		ds.centers = hotspotCenters(cfg)
	}
	base := workload.Entries(cfg, sp.preload)
	// Group the preload by provider (one upload carries one provider),
	// in a fixed order so ids are deterministic.
	sort.SliceStable(base, func(i, j int) bool { return base[i].Provider < base[j].Provider })
	for i := 0; i < len(base); {
		j := i
		for j < len(base) && j-i < preloadMax && base[j].Provider == base[i].Provider {
			j++
		}
		reps := make([]segment.Representative, j-i)
		for k := range reps {
			reps[k] = base[i+k].Rep
		}
		u, err := newUpload(base[i].Provider, reps)
		if err != nil {
			return nil, err
		}
		ds.batches = append(ds.batches, u)
		i = j
	}
	ds.checkpoint = len(ds.batches)
	if sp.walTail > 0 {
		tail := cfg
		tail.Seed = seed + 3
		es := workload.Entries(tail, sp.walTail)
		rng := rand.New(rand.NewSource(seed + 4))
		for i := 0; i < len(es); {
			n := min(1+rng.Intn(maxBatch), len(es)-i)
			reps := make([]segment.Representative, n)
			for k := range reps {
				reps[k] = es[i+k].Rep
			}
			u, err := newUpload(es[i].Provider, reps)
			if err != nil {
				return nil, err
			}
			ds.batches = append(ds.batches, u)
			i += n
		}
	}
	next := uint64(1)
	for _, u := range ds.batches {
		ids := make([]uint64, len(u.reps))
		for k := range ids {
			ids[k] = next
			next++
		}
		ds.preload = append(ds.preload, u.entries(ids)...)
		ds.userBytes += int64(len(u.body))
	}
	if len(ds.centers) > 0 {
		if err := checkCenters(ds.preload, ds.centers, cfg.HotspotSigmaMeters); err != nil {
			return nil, err
		}
	}
	ds.oracle = index.NewLinear()
	if err := ds.oracle.InsertBatch(ds.preload); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 5))
	pool, err := ds.readPool(rng)
	if err != nil {
		return nil, err
	}
	ds.pool = pool
	if err := ds.answer(pool); err != nil {
		return nil, err
	}
	// The boot read is the query whose answer reaches furthest into the
	// id sequence: a serving node that returns it has recovered the
	// checkpoint and, where there is one, the WAL tail.
	best := uint64(0)
	for _, r := range pool {
		for _, x := range r.want {
			if r.kind == kQuery && x.Entry.ID > best {
				best, ds.boot = x.Entry.ID, r
			}
		}
	}
	if ds.boot == nil {
		return nil, fmt.Errorf("%s: no pool query has a non-empty answer", sp.name)
	}
	return ds, nil
}

func newUpload(provider string, reps []segment.Representative) (*upload, error) {
	body, err := wire.EncodeBinary(wire.Upload{Provider: provider, Reps: reps})
	if err != nil {
		return nil, err
	}
	dec, err := wire.DecodeBinary(body)
	if err != nil {
		return nil, err
	}
	return &upload{provider: provider, reps: dec.Reps, body: body}, nil
}

func newRead(k kind, q query.Query) (*read, error) {
	var v any = server.QueryRequest{Query: q, MaxResults: topN}
	if k == kNearest {
		v = server.NearestRequest{Center: q.Center, StartMillis: q.StartMillis, EndMillis: q.EndMillis, K: nearestK}
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &read{kind: k, q: q, body: body}, nil
}

// readPool draws the workload's distinct reads, split between /query
// and /nearest in the mix's proportion.
func (ds *dataset) readPool(rng *rand.Rand) ([]*read, error) {
	sp := ds.spec
	nNear := int(float64(sp.reads) * sp.mix[kNearest] / (sp.mix[kQuery] + sp.mix[kNearest]))
	nQuery := sp.reads - nNear
	var qs []query.Query
	cfg := sp.city
	cfg.Seed = ds.seed
	switch {
	case len(ds.centers) > 0:
		// workload.Queries draws uniform centers although its doc says
		// they follow the dataset; a hotspot querier looks at the
		// clusters, so these are drawn here around the same centers.
		for i := 0; i < sp.reads; i++ {
			qs = append(qs, query.Query{
				StartMillis:  cfg.HorizonMillis - liveWindow,
				EndMillis:    cfg.HorizonMillis,
				Center:       nearCenter(rng, ds.centers, cfg.HotspotSigmaMeters),
				RadiusMeters: queryR,
			})
		}
	default:
		qs = workload.Queries(cfg, sp.reads, queryR, hourMillis)
	}
	out := make([]*read, 0, sp.reads)
	for i, q := range qs {
		k := kQuery
		if i >= nQuery {
			k = kNearest
		}
		r, err := newRead(k, q)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// answer fills in the oracle's answers, on two goroutines.
func (ds *dataset) answer(rs []*read) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rs); i += len(errs) {
				want, err := rs[i].rank()(ds.oracle, rs[i].n())
				if err != nil {
					errs[w] = err
					return
				}
				rs[i].want = want
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// hotspotCenters reproduces workload.Entries' cluster centers: they are
// the first draws of its generator (uniformPoint per hotspot).
// checkCenters guards the reproduction against the generator changing.
func hotspotCenters(cfg workload.Config) []geo.Point {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]geo.Point, cfg.Hotspots)
	for i := range out {
		east := (rng.Float64()*2 - 1) * cfg.ExtentMeters
		north := (rng.Float64()*2 - 1) * cfg.ExtentMeters
		out[i] = geo.Offset(geo.Offset(cfg.Center, 90, east), 0, north)
	}
	return out
}

func checkCenters(es []index.Entry, centers []geo.Point, sigma float64) error {
	near := 0
	for _, e := range es {
		for _, c := range centers {
			if geo.Distance(e.Rep.FoV.P, c) < 4*sigma {
				near++
				break
			}
		}
	}
	if frac := float64(near) / float64(len(es)); frac < 0.75 {
		return fmt.Errorf("only %.0f%% of the hotspot preload lies near the reproduced centers; workload.Entries changed its layout", 100*frac)
	}
	return nil
}

// nearCenter draws a point around a random cluster with the radial law
// workload.Entries uses for hotspot captures.
func nearCenter(rng *rand.Rand, centers []geo.Point, sigma float64) geo.Point {
	c := centers[rng.Intn(len(centers))]
	d := rng.NormFloat64()
	if d < 0 {
		d = -d
	}
	return geo.Offset(c, rng.Float64()*360, d*sigma)
}

// stream is one phase's requests; sched holds the open-loop due times
// (nil for the closed loop).
type stream struct {
	ops   []op
	sched []time.Duration
}

// newStream draws n requests (or, with rate > 0, Poisson arrivals over
// dur) in the workload's mix. Uploads are fresh content every time.
func (ds *dataset) newStream(rng *rand.Rand, phase string, rate float64, dur time.Duration, n int) (*stream, error) {
	s := &stream{}
	if rate > 0 {
		for at := time.Duration(0); ; {
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if at > dur {
				break
			}
			s.sched = append(s.sched, at)
		}
		n = len(s.sched)
	}
	lastUp := -1
	for i := 0; i < n; i++ {
		o := op{kind: pick(rng, ds.spec.mix), target: -1}
		switch o.kind {
		case kUpload:
			up, err := ds.newRunUpload(rng)
			if err != nil {
				return nil, err
			}
			o.up = up
			o.trace = fmt.Sprintf("bench-%s-%d-%d", phase, ds.seed, i)
			lastUp = i
		default:
			if ds.spec.name == "ingest-durable" {
				// Read-your-write: read back an upload due well before
				// this request, so it is normally acknowledged by the
				// time this one is sent.
				t := lastUp
				for t >= 0 && !s.earlyEnough(t, i) {
					t--
				}
				for t >= 0 && s.ops[t].kind != kUpload {
					t--
				}
				if t >= 0 {
					rd, err := probeRead(o.kind, s.ops[t].up.reps[0])
					if err != nil {
						return nil, err
					}
					o.rd, o.target = rd, t
					break
				}
			}
			o.rd = ds.pool[ds.poolIndex(rng, o.kind)]
		}
		s.ops = append(s.ops, o)
	}
	var probes []*read
	for _, o := range s.ops {
		if o.target >= 0 {
			probes = append(probes, o.rd)
		}
	}
	return s, ds.answer(probes)
}

// earlyEnough reports whether upload t is due probeLagMillis before
// request i (closed loop: 20 requests before it).
func (s *stream) earlyEnough(t, i int) bool {
	if s.sched == nil {
		return i-t >= 20
	}
	return s.sched[i]-s.sched[t] >= probeLagMillis*time.Millisecond
}

// probeRead builds a read whose answer must contain rep: a small circle
// 10 m in front of the camera, over the segment's own interval.
func probeRead(k kind, rep segment.Representative) (*read, error) {
	return newRead(k, query.Query{
		StartMillis:  rep.StartMillis,
		EndMillis:    rep.EndMillis,
		Center:       geo.Offset(rep.FoV.P, rep.FoV.Theta, 10),
		RadiusMeters: 5,
	})
}

func (ds *dataset) poolIndex(rng *rand.Rand, k kind) int {
	for {
		i := rng.Intn(len(ds.pool))
		if ds.pool[i].kind == k {
			return i
		}
	}
}

func pick(rng *rand.Rand, mix [numKinds]float64) kind {
	x := rng.Float64()
	for k := kind(0); k < numKinds-1; k++ {
		if x < mix[k] {
			return k
		}
		x -= mix[k]
	}
	return numKinds - 1
}

// newRunUpload draws one upload of 1..batch representatives for a
// random provider, placed where the workload writes: a second day of
// the city for query-city (so its reads stay exactly checkable), the
// same city and day for ingest-durable, and the hotspot cells of the
// most recent ten minutes for hotspot-live.
func (ds *dataset) newRunUpload(rng *rand.Rand) (*upload, error) {
	cfg := ds.spec.city
	n := 1 + rng.Intn(ds.spec.batch)
	reps := make([]segment.Representative, n)
	for i := range reps {
		var p geo.Point
		var start int64
		dur := 1000 + rng.Int63n(cfg.MaxSegmentMillis-1000)
		switch ds.spec.name {
		case "hotspot-live":
			p = nearCenter(rng, ds.centers, cfg.HotspotSigmaMeters)
			start = cfg.HorizonMillis - liveWindow + rng.Int63n(liveWindow-dur)
		default:
			east := (rng.Float64()*2 - 1) * cfg.ExtentMeters
			north := (rng.Float64()*2 - 1) * cfg.ExtentMeters
			p = geo.Offset(geo.Offset(cfg.Center, 90, east), 0, north)
			start = rng.Int63n(cfg.HorizonMillis)
			if ds.spec.name == "query-city" {
				start += cfg.HorizonMillis + cfg.MaxSegmentMillis
			}
		}
		reps[i] = segment.Representative{
			FoV:         fov.FoV{P: p, Theta: rng.Float64() * 360},
			StartMillis: start,
			EndMillis:   start + dur,
		}
	}
	return newUpload(fmt.Sprintf("provider-%03d", rng.Intn(cfg.Providers)), reps)
}
