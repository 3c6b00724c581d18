// Command e2ebench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds fovserver and this harness from the
// tree under test), launches the real fovserver on loopback with its
// default flags, drives POST /query, /nearest and /upload with
// pre-encoded bodies from one generator process, checks every answer
// against an oracle, and prints each metric with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	bash e2ebench/run.sh --workload query-city --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant (server hosted in-process, spans around each layer) and
// reports the per-layer metrics. See README.md for the workloads and
// what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fovr/internal/index"
	"fovr/internal/server"
	"fovr/internal/snapshot"
)

// Run shape. The open loop takes most of a run; the closed loop a
// fixed amount of work sized to last the rest at the seed's capacity
// (about four times the offered rate), so the state a run leaves
// behind does not depend on how fast the server is.
const (
	openShare   = 0.8 // of --seconds, untraced, in open-loop segments
	closedShare = 0.2 // of --seconds at capacityRatio × the offered rate, in closed-loop bursts
	cycles      = 5   // open-loop segments, each followed by a closed-loop burst
	// capacityRatio is the seed's capacity over the offered rate.
	capacityRatio = 4
	tracedShare   = 0.45 // of --seconds, each of the traced run's two phases
	setupBoots    = 3    // boots per run; setup_s is their median
	workers       = 2    // connections of the generator: nproc on the 2-core host it was sized on
	lagLimitMs    = 5.0  // gen.lag_p99_ms above this marks the run invalid
	// stealLimit is the share of CPU time the hypervisor may steal during
	// the timed phases before the run is marked disturbed.
	stealLimit  = 0.10
	runDeadline = 170 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bin      string // the fovserver binary
	work     string // scratch and fixture cache
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/fovserver", "fovserver binary built from the tree under test")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for fixtures and run data")
	flag.Parse()
	os.Exit(run(o))
}

func run(o options) int {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killAll()
	res, err := execute(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for _, line := range res.info {
		fmt.Println("#", line)
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.result.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates the result and the human-readable lines printed
// before it.
type report struct {
	result result
	info   []string
}

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64, unit, detail string) {
	r.result.Metrics[name] = metric{Value: v, Unit: unit}
	if detail != "" {
		detail = "  " + detail
	}
	r.note("%-34s %12.6g %s%s", name, v, unit, detail)
}

// setTail reports a latency percentile of the open loop with its
// sample count (see windowed). Only medians are bounded metrics; tails
// are printed with the whole-phase distribution for reading, because on
// two shared cores their run-to-run spread is wider than any bound the
// benchmark could hold.
func (r *report) setTail(name string, xs []sample, span time.Duration, q float64, bounded bool) error {
	p, w, err := windowed(xs, span, q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	detail := fmt.Sprintf("median over %d windows of p%.4g; n=%d", w, 100*p.Q, p.N)
	if bounded {
		r.set(name, p.Value, "ms", detail)
		return nil
	}
	var dist []string
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		if p, err := percentile(values(xs), q); err == nil {
			dist = append(dist, fmt.Sprintf("p%.4g=%.4g", 100*p.Q, p.Value))
		}
	}
	r.note("%-34s %12.6g ms  %s (not bounded); whole open loop %s", name, p.Value, detail, strings.Join(dist, " "))
	return nil
}

// run state shared by both variants
type bench struct {
	o    options
	sp   spec
	ds   *dataset
	fix  string // fixture directory
	tmp  string // this run's scratch directory
	rng  *rand.Rand
	rep  *report
	key  string // fixture key: hashes of the server and harness binaries
	fail []string
}

func execute(ctx context.Context, o options) (*report, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return nil, errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	b := &bench{o: o, sp: sp, rng: rand.New(rand.NewSource(o.seed + 6)),
		rep: &report{result: result{Metrics: map[string]metric{}}}}
	srvHash, err := fileHash(o.bin)
	if err != nil {
		return nil, fmt.Errorf("fovserver binary (build it with run.sh): %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	selfHash, err := fileHash(self)
	if err != nil {
		return nil, err
	}
	b.key = srvHash[:12] + "-" + selfHash[:12]
	t := time.Now()
	if b.ds, err = newDataset(sp, o.seed); err != nil {
		return nil, err
	}
	b.rep.note("dataset %s: %d preloaded entries (%d in the WAL tail), %d distinct reads, oracle in %.1fs",
		sp.name, len(b.ds.preload), sp.walTail, len(b.ds.pool), time.Since(t).Seconds())
	if b.fix, err = fixture(ctx, o.bin, filepath.Join(o.work, "fixtures"), b.ds, b.key); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	if b.tmp, err = os.MkdirTemp(o.work, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.tmp)
	b.environment(srvHash)
	if o.trace == 1 {
		err = b.traced(ctx)
	} else {
		err = b.untraced(ctx)
	}
	if err != nil {
		return nil, err
	}
	b.rep.result.Correct = b.rep.result.Failed == 0
	for _, f := range b.fail {
		b.rep.note("FAILED %s", f)
	}
	return b.rep, nil
}

// environment records what the numbers were measured on.
func (b *bench) environment(srvHash string) {
	commit := "unknown (no VCS data in this checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	b.rep.note("env cores=%d generator_gomaxprocs=1 (traced run's in-process host: %d) server_gomaxprocs=%s go=%s commit=%s fovserver_sha256=%s",
		runtime.NumCPU(), runtime.NumCPU(), serverGOMAXPROCS(), runtime.Version(), commit, srvHash[:16])
	b.rep.note("run workload=%s seed=%d seconds=%d trace=%d fsync=always index=rtree preload=%d wal_tail=%d offered_rate=%g/s mix(query,nearest,upload)=%v",
		b.sp.name, b.o.seed, b.o.seconds, b.o.trace, b.sp.preload, b.sp.walTail, b.sp.rate, b.sp.mix)
}

// serverGOMAXPROCS is what fovserver's runtime picks: the GOMAXPROCS
// environment variable it inherits, else the CPUs it may run on.
func serverGOMAXPROCS() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return strconv.Itoa(runtime.NumCPU())
}

// boot copies the fixture and starts a server on the copy, returning it
// with the time from exec to the first correct answer.
func (b *bench) boot(ctx context.Context, name string) (*serverProc, time.Duration, error) {
	dir := filepath.Join(b.tmp, name)
	if err := copyTree(b.fix, dir); err != nil {
		return nil, 0, err
	}
	p, err := startServer(b.o.bin, dir)
	if err != nil {
		return nil, 0, err
	}
	d, err := waitServing(ctx, p, b.ds.boot)
	if err != nil {
		p.kill()
		return nil, 0, err
	}
	return p, d, nil
}

func (b *bench) stream(name string, dur time.Duration, n int) (*stream, error) {
	rate := b.sp.rate
	if n > 0 {
		rate = 0
	}
	return b.ds.newStream(b.rng, name, rate, dur, n)
}

// quiet drops what the timed phases no longer need (the oracle's index),
// makes the harness collect less often and runs it on one thread, so
// the generator perturbs the shared CPUs as little as possible and
// never holds both while the server runs in its own process.
func (b *bench) quiet() {
	b.ds.oracle = nil
	runtime.GC()
	debug.SetGCPercent(400)
	runtime.GOMAXPROCS(1)
}

func (b *bench) addFailures(n int, reasons []string) {
	b.rep.result.Failed += n
	b.fail = append(b.fail, reasons...)
}

func (b *bench) untraced(ctx context.Context) error {
	// The run alternates open-loop segments with closed-loop bursts, so
	// each figure is a median over parts spread across the run rather
	// than one stretch of whatever else the host was doing.
	segment := time.Duration(openShare * float64(b.o.seconds) * float64(time.Second) / cycles)
	burst := int(math.Round(capacityRatio * b.sp.rate * closedShare * float64(b.o.seconds) / cycles))
	var opens, closeds []*stream
	for c := 0; c < cycles; c++ {
		o, err := b.stream(fmt.Sprintf("open%d", c), segment, 0)
		if err != nil {
			return err
		}
		cl, err := b.stream(fmt.Sprintf("closed%d", c), 0, burst)
		if err != nil {
			return err
		}
		opens, closeds = append(opens, o), append(closeds, cl)
	}
	b.quiet()
	var setups []float64
	var p *serverProc
	for i := 0; i < setupBoots; i++ {
		q, d, err := b.boot(ctx, fmt.Sprintf("boot-%d", i))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupBoots-1 {
			q.kill()
		} else {
			p = q
		}
	}
	defer p.kill()
	g := newGenerator(p.base, workers, false)
	defer g.close()
	var phases, openPh []*phase
	var cpu time.Duration
	var bursts []float64
	host0, err := readHostTicks()
	if err != nil {
		return err
	}
	for c := 0; c < cycles; c++ {
		cpu0, err := procCPU(p.pid())
		if err != nil {
			return err
		}
		po := runPhase(ctx, g, fmt.Sprintf("open%d", c), opens[c])
		cpu1, err := procCPU(p.pid())
		if err != nil {
			return err
		}
		cpu += cpu1 - cpu0
		pc := runPhase(ctx, g, fmt.Sprintf("closed%d", c), closeds[c])
		if err := ctx.Err(); err != nil {
			return err
		}
		bursts = append(bursts, float64(pc.completed())/pc.elapsed().Seconds())
		phases = append(phases, po, pc)
		openPh = append(openPh, po)
	}
	host1, err := readHostTicks()
	if err != nil {
		return err
	}
	hwm, err := procStatus(p.pid(), "VmHWM")
	if err != nil {
		return err
	}
	disk, err := dirBytes(p.dir)
	if err != nil {
		return err
	}
	user := b.ds.userBytes
	for _, ph := range phases {
		user += ph.ackedBytes()
		b.rep.result.Attempted += len(ph.recs)
	}
	if b.sp.walTail > 0 {
		lost, reasons, err := durability(ctx, b.o.bin, p, b.ds, phases)
		if err != nil {
			return err
		}
		b.addFailures(lost, reasons)
	}
	p.kill()
	failed, reasons := verify(b.ds, phases)
	b.addFailures(failed, reasons)

	r := b.rep
	sort.Float64s(setups)
	r.set("setup_s", setups[len(setups)/2], "s", fmt.Sprintf("median of %d boots %.4g", len(setups), setups))
	completed := 0
	for _, ph := range openPh {
		completed += ph.completed()
	}
	for k := kind(0); k < numKinds; k++ {
		// One timeline: segment c's samples follow segment c-1's.
		var xs []sample
		for c, ph := range openPh {
			for _, x := range ph.latencies(k) {
				xs = append(xs, sample{at: x.at + time.Duration(c)*segment, ms: x.ms})
			}
		}
		span := time.Duration(cycles) * segment
		if err := r.setTail(k.String()+"_p50_ms", xs, span, 0.5, true); err != nil {
			return err
		}
		if err := r.setTail(k.String()+"_p99_ms", xs, span, 0.99, false); err != nil {
			return err
		}
	}
	r.set("capacity_ops_s", median(bursts), "ops/s",
		fmt.Sprintf("median of %d closed-loop bursts of %d requests on %d connections: %.5g", cycles, burst, workers, bursts))
	us := float64(cpu) / float64(time.Microsecond)
	r.set("cpu_us_per_op", us/float64(completed), "us", fmt.Sprintf("%.2fs server CPU over %d open-loop requests", us/1e6, completed))
	r.set("server_rss_mb", float64(hwm)/(1<<20), "MB", "VmHWM")
	r.set("disk_bytes_per_user_byte", float64(disk)/float64(user), "B/B",
		fmt.Sprintf("%d data-dir bytes / %d acknowledged upload bytes", disk, user))
	b.lagNote(openPh, stealShare(host0, host1))
	return nil
}

// lagNote reports how late the generator ran and how much CPU the
// hypervisor took from the machine, and flags a run whose open loop did
// not keep its schedule or whose machine was taken by other guests: its
// latencies describe the generator or the host, not the server.
func (b *bench) lagNote(phs []*phase, steal float64) float64 {
	var lags []float64
	var sent int
	var took time.Duration
	for _, ph := range phs {
		lags = append(lags, ph.lags()...)
		sent += len(ph.recs)
		took += ph.elapsed()
	}
	p, err := percentile(lags, 0.99)
	if err != nil {
		return 0
	}
	valid := "valid"
	if p.Value > lagLimitMs {
		valid = fmt.Sprintf("INVALID: generator fell behind its schedule (lag p99 %.3gms > %gms)", p.Value, lagLimitMs)
	} else if steal > stealLimit {
		valid = fmt.Sprintf("INVALID: the hypervisor stole %.0f%% of the CPU time (> %.0f%%)", 100*steal, 100*stealLimit)
	}
	b.rep.note("gen.lag_p99_ms %.4g ms (p%.4g of n=%d) offered=%g/s achieved=%.1f/s host_steal=%.1f%% run %s",
		p.Value, 100*p.Q, p.N, b.sp.rate, float64(sent)/took.Seconds(), 100*steal, valid)
	return p.Value
}

// durability kills the server (SIGKILL) after the timed phases,
// restarts it on the same directory and checks that every acknowledged
// upload is there and /stats counts exactly preload + acknowledged
// representatives. A process kill leaves the OS page cache intact, so
// this checks journal-before-ack ordering, not the device flush.
func durability(ctx context.Context, bin string, p *serverProc, ds *dataset, phases []*phase) (lost int, reasons []string, err error) {
	p.kill()
	q, err := startServer(bin, p.dir)
	if err != nil {
		return 0, nil, err
	}
	defer q.kill()
	if err := waitUp(ctx, q); err != nil {
		return 0, nil, err
	}
	resp, err := http.Get(q.base + "/snapshot")
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return 0, nil, fmt.Errorf("GET /snapshot after restart: %s", resp.Status)
	}
	entries, err := snapshot.Read(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot after restart: %w", err)
	}
	have := make(map[uint64]index.Entry, len(entries))
	for _, e := range entries {
		have[e.ID] = e
	}
	ack := 0
	for _, ph := range phases {
		for i := range ph.recs {
			r, o := &ph.recs[i], &ph.s.ops[i]
			if o.kind != kUpload || r.err != nil || len(r.ids) != len(o.up.reps) {
				continue
			}
			ack += len(r.ids)
			for _, e := range o.up.entries(r.ids) {
				if have[e.ID] != e {
					lost++
					if len(reasons) < 5 {
						reasons = append(reasons, fmt.Sprintf("durability: acknowledged id %d (%s request %d) missing after kill -9 and restart", e.ID, ph.name, i))
					}
					break
				}
			}
		}
	}
	var st server.Stats
	if err := getJSON(q.base, "/stats", &st); err != nil {
		return 0, nil, err
	}
	if want := len(ds.preload) + ack; st.Segments != want {
		lost++
		reasons = append(reasons, fmt.Sprintf("durability: /stats counts %d entries after restart, want %d preloaded + %d acknowledged", st.Segments, len(ds.preload), ack))
	}
	return lost, reasons, nil
}

func (b *bench) traced(ctx context.Context) error {
	secs := time.Duration(b.o.seconds) * time.Second
	s, err := b.stream("traced", time.Duration(tracedShare*float64(secs)), 0)
	if err != nil {
		return err
	}
	b.quiet()
	// Phase A: the untraced reference, the real subprocess.
	p, _, err := b.boot(ctx, "reference")
	if err != nil {
		return err
	}
	ga := newGenerator(p.base, workers, false)
	pa := runPhase(ctx, ga, "reference", s)
	ga.close()
	if err := ctx.Err(); err != nil {
		p.kill()
		return err
	}
	ma, err := scrape(p.base)
	p.kill()
	if err != nil {
		return err
	}
	failed, reasons := verify(b.ds, []*phase{pa})
	b.addFailures(failed, reasons)

	// Phase B: the same requests against the server hosted in-process,
	// with spans around the handler and the store.
	// The hosted server needs every CPU, as in its own process.
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir := filepath.Join(b.tmp, "traced")
	if err := copyTree(b.fix, dir); err != nil {
		return err
	}
	h, err := startHost(dir)
	if err != nil {
		return err
	}
	defer h.close()
	m0, err := scrape(h.base)
	if err != nil {
		return err
	}
	gc0 := gcCycles()
	host0, err := readHostTicks()
	if err != nil {
		return err
	}
	gb := newGenerator(h.base, workers, true)
	pb := runPhase(ctx, gb, "traced", s)
	gb.close()
	if err := ctx.Err(); err != nil {
		return err
	}
	gc1 := gcCycles()
	host1, err := readHostTicks()
	if err != nil {
		return err
	}
	m1, err := scrape(h.base)
	if err != nil {
		return err
	}
	failed, reasons = verify(b.ds, []*phase{pb})
	b.addFailures(failed, reasons)
	b.rep.result.Attempted = len(pa.recs) + len(pb.recs)

	spans, handler, err := opSpans(pb, h.log)
	if err != nil {
		return err
	}
	ls, split, err := splitLayers(pb, h, spans, handler)
	if err != nil {
		return err
	}
	for _, line := range split {
		b.rep.note("%s", line)
	}
	if err := writeSpans(filepath.Join(b.o.work, fmt.Sprintf("spans-%s-s%d.jsonl", b.sp.name, b.o.seed)), spans); err != nil {
		return err
	}
	hh := h.srv.Handler()
	queryBody := b.ds.boot.body
	var upBody []byte
	for _, o := range s.ops {
		if o.kind == kUpload {
			upBody = o.up.body
			break
		}
	}
	ls["server.allocs_per_query"] = handlerAllocs(hh, "/query", "application/json", "", queryBody)
	ls["server.allocs_per_upload"] = handlerAllocs(hh, "/upload", "application/octet-stream", "bench-allocs", upBody)

	searches := counterDelta(m0, m1, "fovr_rtree_searches_total")
	ls["index.nodes_per_search"] = counterDelta(m0, m1, "fovr_rtree_node_visits_total") / searches
	ls["index.leaf_entries_per_search"] = counterDelta(m0, m1, "fovr_rtree_leaf_entries_scanned_total") / searches
	fsyncs := counterDelta(m0, m1, "fovr_wal_fsync_seconds_count")
	ls["store.fsync_us"] = 1e6 * counterDelta(m0, m1, "fovr_wal_fsync_seconds_sum") / fsyncs
	nUp := 0
	for i := range pb.recs {
		if pb.s.ops[i].kind == kUpload && pb.recs[i].err == nil {
			nUp++
		}
	}
	ls["store.fsyncs_per_upload"] = fsyncs / float64(nUp)
	ls["store.wal_bytes_per_user_byte"] = counterDelta(m0, m1, "fovr_wal_bytes_total") / float64(pb.ackedBytes())
	ls["store.recovery_s"] = h.recovery.Seconds()
	ls["server.index_build_s"] = h.indexBuild.Seconds()
	ls["process.gc_cycles_per_kop"] = float64(gc1-gc0) / (float64(pb.completed()) / 1000)
	ls["process.heap_mb"] = ma["fovr_go_heap_bytes"] / (1 << 20)
	ls["gen.lag_p99_ms"] = b.lagNote([]*phase{pb}, stealShare(host0, host1))
	refP50, tracedP50 := median(values(pa.latencies(numKinds))), median(values(pb.latencies(numKinds)))
	ls["bench.trace_overhead_pct"] = 100 * (tracedP50 - refP50) / refP50

	r := b.rep
	r.note("traced run: op p50 %.4gms untraced (subprocess) vs %.4gms traced (in-process); %d spans written", refP50, tracedP50, len(spans))
	for k := kind(0); k < numKinds; k++ {
		xs := values(pb.latencies(k))
		if p50, err := percentile(xs, 0.5); err == nil {
			p99, _ := percentile(xs, 0.99)
			r.note("traced %s_p50_ms %.4g  %s_p99_ms %s", k, p50.Value, k, p99)
		}
	}
	names := make([]string, 0, len(perLayer))
	for name := range perLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := ls[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("per-layer metric %s not measured (%v)", name, v)
		}
		r.set(name, v, perLayer[name], "")
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// perLayer names every per-layer metric with its unit, as
// BENCHMARK.json does; a traced run must measure each of them.
var perLayer = map[string]string{
	"http.query_transport_us": "us", "http.upload_transport_us": "us",
	"server.query_handler_us": "us", "server.nearest_handler_us": "us", "server.upload_handler_us": "us",
	"server.query_unaccounted_us": "us", "server.upload_unaccounted_us": "us",
	"server.allocs_per_query": "count", "server.allocs_per_upload": "count",
	"server.json_decode_us": "us", "server.json_encode_us": "us", "server.response_bytes_per_query": "B",
	"server.index_build_s":  "s",
	"wire.decode_upload_us": "us",
	"query.search_us":       "us", "query.filter_us": "us", "query.rank_us": "us",
	"query.candidates_per_result": "count", "query.nearest_us": "us",
	"index.nodes_per_search": "count", "index.leaf_entries_per_search": "count",
	"index.insert_batch_us": "us", "index.splits_per_upload": "count",
	"store.append_us": "us", "store.fsync_us": "us", "store.fsyncs_per_upload": "count",
	"store.wal_bytes_per_user_byte": "B/B", "store.recovery_s": "s",
	"process.gc_cycles_per_kop": "count", "process.heap_mb": "MB",
	"gen.lag_p99_ms": "ms", "bench.trace_overhead_pct": "%",
}
