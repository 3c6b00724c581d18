package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fovr/internal/query"
	"fovr/internal/server"
)

// serverProc is one fovserver process on loopback, run with its default
// flags plus -addr and -data-dir, its output discarded.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	dir     string
	started time.Time
	exited  chan struct{}
	waitErr error
}

// live tracks every started server so an early exit still kills them.
var live struct {
	sync.Mutex
	procs map[*serverProc]bool
}

func startServer(bin, dir string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dir)
	// The server must not outlive the harness, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, dir: dir, exited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fovserver: %w", err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*serverProc]bool)
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
	}()
	return p, nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// kill stops the process with SIGKILL (a crash) and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.exited
}

// stop shuts the process down with SIGTERM — fovserver then checkpoints
// and closes its store — and waits for it.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		p.kill()
		return errors.New("fovserver ignored SIGTERM for 60s")
	}
	var ee *exec.ExitError
	if p.waitErr != nil && !errors.As(p.waitErr, &ee) {
		return p.waitErr
	}
	if !p.cmd.ProcessState.Success() {
		return fmt.Errorf("fovserver exited with %v after SIGTERM", p.cmd.ProcessState)
	}
	return nil
}

// killAll kills every server still running; main defers it.
func killAll() {
	live.Lock()
	ps := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitServing polls the boot read until the server answers it exactly
// as the oracle does and returns the time since exec. Polls are 1 ms
// apart; a refused connection fails immediately.
func waitServing(ctx context.Context, p *serverProc, rd *read) (time.Duration, error) {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(120 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return 0, fmt.Errorf("fovserver exited during boot: %v", p.waitErr)
		case <-ctx.Done():
			return 0, ctx.Err()
		default:
		}
		got, err := postRead(c, p.base, rd)
		if err == nil {
			if err = checkExact(got, rd.want); err == nil {
				return time.Since(p.started), nil
			}
		}
		last = err
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("fovserver not serving after 120s: %v", last)
}

func postRead(c *http.Client, base string, rd *read) ([]query.Ranked, error) {
	resp, err := c.Post(base+rd.kind.path(), "application/json", bytes.NewReader(rd.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", rd.kind.path(), resp.Status)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, err
	}
	return qr.Results, nil
}

// getJSON fetches a JSON document from the server.
func getJSON(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fixture returns the prepared data directory for the dataset, building
// it once per seed and binary pair: the preload is uploaded through a
// fresh fovserver, which then either shuts down cleanly (leaving a
// checkpoint) or, for a WAL tail, checkpoints, takes the tail uploads
// and is killed. Runs copy the directory, so set-up times boot and
// recovery only.
func fixture(ctx context.Context, bin, cache string, ds *dataset, key string) (string, error) {
	final := filepath.Join(cache, fmt.Sprintf("%s-s%d-%s", ds.spec.name, ds.seed, key))
	if _, err := os.Stat(final); err == nil {
		return final, nil
	}
	tmp := final + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	p, err := startServer(bin, tmp)
	if err != nil {
		return "", err
	}
	defer p.kill()
	if err := waitUp(ctx, p); err != nil {
		return "", err
	}
	c := &http.Client{}
	defer c.CloseIdleConnections()
	next := uint64(1)
	for i, u := range ds.batches {
		if i == ds.checkpoint {
			resp, err := c.Post(p.base+"/checkpoint", "application/json", nil)
			if err != nil {
				return "", err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return "", fmt.Errorf("fixture checkpoint: %s", resp.Status)
			}
		}
		ack, err := postUpload(c, p.base, u.body, "")
		if err != nil {
			return "", fmt.Errorf("fixture upload %d: %w", i, err)
		}
		for k, id := range ack.IDs {
			if id != next {
				return "", fmt.Errorf("fixture upload %d rep %d: server assigned id %d, expected %d", i, k, id, next)
			}
			next++
		}
	}
	if ds.checkpoint < len(ds.batches) {
		p.kill() // leaves the uploads since the checkpoint in the WAL only
	} else if err := p.stop(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	pruneFixtures(cache, 4)
	return final, nil
}

// waitUp waits for an empty server to answer /stats.
func waitUp(ctx context.Context, p *serverProc) error {
	for start := time.Now(); time.Since(start) < 60*time.Second; time.Sleep(5 * time.Millisecond) {
		select {
		case <-p.exited:
			return fmt.Errorf("fovserver exited during boot: %v", p.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		var st server.Stats
		if getJSON(p.base, "/stats", &st) == nil {
			return nil
		}
	}
	return errors.New("fovserver not up after 60s")
}

func postUpload(c *http.Client, base string, body []byte, trace string) (server.UploadResponse, error) {
	var ack server.UploadResponse
	req, err := http.NewRequest(http.MethodPost, base+"/upload", bytes.NewReader(body))
	if err != nil {
		return ack, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if trace != "" {
		req.Header.Set(server.TraceHeader, trace)
	}
	resp, err := c.Do(req)
	if err != nil {
		return ack, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return ack, err
	}
	if resp.StatusCode != http.StatusOK {
		return ack, fmt.Errorf("/upload: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return ack, json.Unmarshal(data, &ack)
}

// pruneFixtures keeps the newest keep fixtures in the cache.
func pruneFixtures(cache string, keep int) {
	des, err := os.ReadDir(cache)
	if err != nil {
		return
	}
	type fx struct {
		path string
		mod  time.Time
	}
	var fs []fx
	for _, de := range des {
		if info, err := de.Info(); err == nil && de.IsDir() && !strings.HasSuffix(de.Name(), ".tmp") {
			fs = append(fs, fx{filepath.Join(cache, de.Name()), info.ModTime()})
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].mod.After(fs[j].mod) })
	for i := keep; i < len(fs); i++ {
		_ = os.RemoveAll(fs[i].path)
	}
}

// copyTree copies the regular files of src into a fresh dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// fileHash is the hex SHA-256 of a file.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// hostTicks is the machine's CPU time from /proc/stat: the ticks stolen
// by the hypervisor for other guests, and all ticks.
type hostTicks struct{ steal, total int64 }

func readHostTicks() (hostTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t hostTicks
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return hostTicks{}, err
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(a, b hostTicks) float64 {
	if b.total == a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// procStatus reads one "Name: value kB" line of /proc/<pid>/status in
// bytes.
func procStatus(pid int, name string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, name)
}

// promValues parses a Prometheus text exposition into name → value
// (the full name, labels included).
func promValues(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return promValues(string(data)), nil
}
